package wings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/proto"
)

// The client codecs are the repo's most exposed surface: tClientReq/tClientResp
// frames arrive from arbitrary TCP peers, not trusted replicas, so every
// hostile-input property the mesh codecs enforce must hold here too. This
// suite mirrors mupdate_test.go/viewlog_test.go: round trips, hostile
// lengths, truncations, out-of-range enums, nesting rejection, bit flips.

func TestClientReqRoundTrips(t *testing.T) {
	msgs := []proto.ClientReq{
		{Seq: 1, Op: proto.OpRead, Key: 42},
		{Seq: ^uint64(0), Op: proto.OpWrite, Key: ^proto.Key(0), Value: proto.Value("v")},
		{Seq: 7, Op: proto.OpCAS, Key: 9,
			Value: proto.Value("new"), Expected: proto.Value("old")},
		{Seq: 8, Op: proto.OpFAA, Key: 3, Value: proto.EncodeInt64(-5)},
		// Empty and nil values round-trip as nil (the zero shape).
		{Seq: 0, Op: proto.OpWrite, Key: 0},
		// Large-ish payloads survive verbatim.
		{Seq: 2, Op: proto.OpWrite, Key: 5, Value: make(proto.Value, 4096)},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestClientRespRoundTrips(t *testing.T) {
	msgs := []proto.ClientResp{
		{Seq: 1, Status: proto.OK, Value: proto.Value("hello")},
		{Seq: 2, Status: proto.Aborted},
		{Seq: 3, Status: proto.CASFailed, Value: proto.Value("observed")},
		{Seq: ^uint64(0), Status: proto.NotOperational},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	}
}

// Out-of-range op and status codes must be refused in BOTH directions: the
// encoder never produces them and the decoder treats them as a corrupt or
// hostile stream (ErrBadEnum), never as values to hand to dispatch.
func TestClientEnumRangeEnforced(t *testing.T) {
	if _, err := Encode(proto.ClientReq{Op: proto.OpFAA + 1}); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("encoder accepted op %d: %v", proto.OpFAA+1, err)
	}
	if _, err := Encode(proto.ClientResp{Status: proto.NotOperational + 1}); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("encoder accepted status %d: %v", proto.NotOperational+1, err)
	}
	// Hand-build bodies with hostile enum bytes.
	req := clientReqBody(1, 0xEE, 42, []byte("v"), nil)
	if _, err := decodeMsg(tClientReq, req, nil); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("decoder accepted op 0xEE: %v", err)
	}
	resp := clientRespBody(1, 0xEE, nil)
	if _, err := decodeMsg(tClientResp, resp, nil); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("decoder accepted status 0xEE: %v", err)
	}
}

// clientReqBody hand-builds a tClientReq payload with arbitrary bytes.
func clientReqBody(seq uint64, op byte, key uint64, value, expected []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq)
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, key)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
	b = append(b, value...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(expected)))
	return append(b, expected...)
}

// clientRespBody hand-builds a tClientResp payload.
func clientRespBody(seq uint64, status byte, value []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq)
	b = append(b, status)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
	return append(b, value...)
}

// Hostile lengths: a value length claiming more bytes than the body holds
// must fail before any allocation sized by the lie.
func TestClientHostileLengths(t *testing.T) {
	lyingReq := clientReqBody(1, byte(proto.OpWrite), 42, []byte("v"), nil)
	// Patch the value length (offset 17) to claim 16MB.
	binary.LittleEndian.PutUint32(lyingReq[17:], 16<<20)
	if _, err := decodeMsg(tClientReq, lyingReq, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying req value length: err=%v, want unexpected EOF", err)
	}
	lyingResp := clientRespBody(1, byte(proto.OK), []byte("v"))
	binary.LittleEndian.PutUint32(lyingResp[9:], 0xFFFFFFF0)
	if _, err := decodeMsg(tClientResp, lyingResp, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying resp value length: err=%v, want unexpected EOF", err)
	}
}

// Truncations at every byte boundary must fail cleanly, never panic.
func TestClientTruncatedPayloads(t *testing.T) {
	req := clientReqBody(9, byte(proto.OpCAS), 7, []byte("value"), []byte("expected"))
	for i := 0; i < len(req); i++ {
		if _, err := decodeMsg(tClientReq, req[:i], nil); err == nil {
			t.Fatalf("req truncated to %d bytes decoded", i)
		}
	}
	resp := clientRespBody(9, byte(proto.CASFailed), []byte("observed"))
	for i := 0; i < len(resp); i++ {
		if _, err := decodeMsg(tClientResp, resp[:i], nil); err == nil {
			t.Fatalf("resp truncated to %d bytes decoded", i)
		}
	}
}

// Client messages ride client sessions only — a shard envelope around one is
// always hostile, in both the encoder and the decoder, standalone and inside
// a coalesced tShardBatch.
func TestClientNeverNestsInShardEnvelopes(t *testing.T) {
	req := proto.ClientReq{Seq: 1, Op: proto.OpRead, Key: 4}
	resp := proto.ClientResp{Seq: 1, Status: proto.OK}
	for _, inner := range []any{req, resp} {
		if _, err := Encode(proto.ShardMsg{Shard: 1, Msg: inner}); err == nil {
			t.Fatalf("encoder accepted %T inside ShardMsg", inner)
		}
		if _, err := Encode(proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 1, Msg: inner}}}); err == nil {
			t.Fatalf("encoder accepted %T inside ShardBatch", inner)
		}
	}
	// Craft the hostile bytes: [2B shard][1B type][4B len][payload] for
	// tShard, and the batch shape for tShardBatch.
	for _, tc := range []struct {
		typ  uint8
		body []byte
	}{
		{tClientReq, clientReqBody(1, byte(proto.OpRead), 4, nil, nil)},
		{tClientResp, clientRespBody(1, byte(proto.OK), nil)},
	} {
		tagged := binary.LittleEndian.AppendUint16(nil, 1)
		tagged = append(tagged, tc.typ)
		tagged = binary.LittleEndian.AppendUint32(tagged, uint32(len(tc.body)))
		tagged = append(tagged, tc.body...)
		if _, err := decodeMsg(tShard, tagged, nil); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("shard-tagged type %d: err=%v, want ErrUnknownType", tc.typ, err)
		}
		batch := binary.LittleEndian.AppendUint16(nil, 1) // batch count
		batch = append(batch, tagged...)
		if _, err := decodeMsg(tShardBatch, batch, nil); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("batched type %d: err=%v, want ErrUnknownType", tc.typ, err)
		}
	}
}

// Random bytes and bit-flipped valid frames must never panic.
func TestClientDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(80))
		rng.Read(buf)
		_, _ = decodeMsg(tClientReq, buf, nil)
		_, _ = decodeMsg(tClientResp, buf, nil)
	}
	validReq, err := Encode(proto.ClientReq{Seq: 3, Op: proto.OpCAS, Key: 11,
		Value: proto.Value("abcdefgh"), Expected: proto.Value("12345678")})
	if err != nil {
		t.Fatal(err)
	}
	validResp, err := Encode(proto.ClientResp{Seq: 3, Status: proto.CASFailed,
		Value: proto.Value("observed")})
	if err != nil {
		t.Fatal(err)
	}
	for _, valid := range [][]byte{validReq, validResp} {
		for i := 0; i < 3000; i++ {
			f := append([]byte(nil), valid...)
			f[rng.Intn(len(f))] ^= 1 << uint(rng.Intn(8))
			_, _ = DecodeOne(f)
		}
	}
}

// A request stream containing a tCredit entry is a protocol violation on a
// client session (admission is session-level, not link-level).
func TestServeClientReqsRejectsCredit(t *testing.T) {
	// [4B frame len][2B count][1B tCredit][4B len=2][2B grant]
	frame := binary.LittleEndian.AppendUint32(nil, 2+7)
	frame = binary.LittleEndian.AppendUint16(frame, 1)
	frame = append(frame, tCredit)
	frame = binary.LittleEndian.AppendUint32(frame, 2)
	frame = binary.LittleEndian.AppendUint16(frame, 8)
	err := ServeClientReqs(bytes.NewReader(frame), nil, func(*proto.ClientReq) error { return nil }, nil)
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("tCredit on client session: err=%v, want ErrUnknownType", err)
	}
}

// The end hook runs once after each frame's requests, also after a frame
// that fails partway — on a refused entry or on fn's error — before the
// error ends the stream.
func TestServeClientReqsEndsEveryFrame(t *testing.T) {
	req := func(seq uint64) proto.ClientReq {
		return proto.ClientReq{Seq: seq, Op: proto.OpWrite, Key: proto.Key(seq), Value: []byte("v")}
	}
	stream, err := AppendFrame(nil, req(1), req(2))
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose second entry is a tCredit: its first request is served,
	// then the stream is refused.
	start := len(stream)
	if stream, err = AppendFrame(stream, req(3)); err != nil {
		t.Fatal(err)
	}
	stream = append(stream, tCredit, 2, 0, 0, 0, 8, 0)
	binary.LittleEndian.PutUint32(stream[start:], uint32(len(stream)-start-4))
	binary.LittleEndian.PutUint16(stream[start+4:], 2)

	var log []string
	serve := func(stream []byte, fail uint64) error {
		log = log[:0]
		errFail := errors.New("fn failed")
		err := ServeClientReqs(bytes.NewReader(stream), nil, func(m *proto.ClientReq) error {
			log = append(log, fmt.Sprint(m.Seq))
			if m.Seq == fail {
				return errFail
			}
			return nil
		}, func() { log = append(log, "end") })
		if errors.Is(err, errFail) {
			return nil
		}
		return err
	}
	if err := serve(stream, 0); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("serve: %v, want ErrUnknownType", err)
	}
	if got, want := fmt.Sprint(log), "[1 2 end 3 end]"; got != want {
		t.Fatalf("refused entry: calls %s, want %s", got, want)
	}
	if err := serve(stream, 1); err != nil {
		t.Fatalf("serve: %v, want fn's error", err)
	}
	if got, want := fmt.Sprint(log), "[1 end]"; got != want {
		t.Fatalf("fn error: calls %s, want %s", got, want)
	}
}

// ServeClientReqs round-trips an AppendFrame batch and dispatches in order.
func TestAppendFrameServeClientReqsRoundTrip(t *testing.T) {
	reqs := make([]any, 100)
	for i := range reqs {
		reqs[i] = proto.ClientReq{Seq: uint64(i), Op: proto.OpWrite,
			Key: proto.Key(i), Value: proto.EncodeInt64(int64(i))}
	}
	frame, err := AppendFrame(nil, reqs...)
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	err = ServeClientReqs(bytes.NewReader(frame), nil, func(m *proto.ClientReq) error {
		got = append(got, *m)
		return nil
	}, nil)
	if err != io.EOF {
		t.Fatalf("serve: %v", err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("dispatched %d msgs, mismatch (got[0]=%+v)", len(got), got[0])
	}
}

// clientValues are the value shapes the golden test crosses with every enum:
// absent, present but empty (both travel as length 0 and come back nil), the
// benchmark's 32 B and its 4 KiB.
var clientValues = []proto.Value{nil, {}, bytes.Repeat([]byte{0xA5}, 32), bytes.Repeat([]byte{0x5A}, 4<<10)}

// typedReqFrame ships req through the typed request door and returns the one
// frame the link wrote.
func typedReqFrame(t *testing.T, req proto.ClientReq) []byte {
	t.Helper()
	var w bytes.Buffer
	l := NewLink(&w, LinkConfig{})
	defer l.Close()
	if err := l.SendClientReq(&req); err != nil {
		t.Fatal(err)
	}
	for l.Stats().FramesSent == 0 || flusherBusy(l) {
		runtime.Gosched()
	}
	return w.Bytes()
}

// genericDecode runs frame through Link.Serve, the decoder every message type
// shares.
func genericDecode(t *testing.T, frame []byte) []any {
	t.Helper()
	var got []any
	l := NewLink(io.Discard, LinkConfig{})
	defer l.Close()
	if err := l.Serve(bytes.NewReader(frame), func(m any) { got = append(got, m) }); err != io.EOF {
		t.Fatalf("generic decode: %v", err)
	}
	return got
}

// TestClientTypedDoorsMatchGenericCodec: each client message has one body
// encoder and one body decoder, so for every op, status and value shape the
// typed doors write the bytes AppendFrame writes, and a frame decodes to the
// same fields through the typed loops and through the generic decoder.
func TestClientTypedDoorsMatchGenericCodec(t *testing.T) {
	for op := proto.OpRead; op <= proto.OpFAA; op++ {
		for i, val := range clientValues {
			req := proto.ClientReq{Seq: uint64(op)<<8 | uint64(i), Op: op, Key: proto.Key(i + 1),
				Value: val, Expected: clientValues[len(clientValues)-1-i]}
			want, err := AppendFrame(nil, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := typedReqFrame(t, req); !bytes.Equal(got, want) {
				t.Fatalf("%v request, value shape %d: typed door wrote\n%x\nAppendFrame\n%x", op, i, got, want)
			}
			var typed []any
			err = ServeClientReqs(bytes.NewReader(want), nil, func(m *proto.ClientReq) error {
				typed = append(typed, *m)
				return nil
			}, nil)
			if err != io.EOF {
				t.Fatal(err)
			}
			if generic := genericDecode(t, want); len(typed) != 1 || !reflect.DeepEqual(typed, generic) {
				t.Fatalf("%v request, value shape %d: typed loop %+v, generic decoder %+v", op, i, typed, generic)
			}
		}
	}
	for st := proto.OK; st <= proto.NotOperational; st++ {
		for i, val := range clientValues {
			resp := proto.ClientResp{Seq: uint64(st)<<8 | uint64(i), Status: st, Value: val}
			want, err := AppendFrame(nil, resp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendClientResps(nil, []proto.ClientResp{resp})
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v response, value shape %d: AppendClientResps wrote\n%x (%v)\nAppendFrame\n%x", st, i, got, err, want)
			}
			var typed []any
			l := NewLink(io.Discard, LinkConfig{})
			err = l.ServeClientResps(bytes.NewReader(want), func(m *proto.ClientResp) { typed = append(typed, *m) })
			l.Close()
			if err != io.EOF {
				t.Fatal(err)
			}
			if generic := genericDecode(t, want); len(typed) != 1 || !reflect.DeepEqual(typed, generic) {
				t.Fatalf("%v response, value shape %d: typed loop %+v, generic decoder %+v", st, i, typed, generic)
			}
		}
	}
	if err := NewLink(io.Discard, LinkConfig{}).SendClientReq(&proto.ClientReq{Op: proto.OpFAA + 1}); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("typed door accepted op %d: %v", proto.OpFAA+1, err)
	}
}

// TestServeClientRespsAcceptsOnlyResponses: the client's loop refuses, by
// tag, everything a server has no business sending — a request, a mesh
// message, a batch, the retired credit grant — and an out-of-range status;
// what it accepts is counted as Serve counts it and repaid once per frame.
func TestServeClientRespsAcceptsOnlyResponses(t *testing.T) {
	for name, msg := range map[string]any{
		"request": proto.ClientReq{Seq: 1, Op: proto.OpRead},
		"INV":     inv(1),
		"batch":   proto.ShardBatch{Msgs: []proto.ShardMsg{{Shard: 1, Msg: ack(1)}}},
	} {
		frame, err := AppendFrame(nil, proto.ClientResp{Seq: 7}, msg)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLink(io.Discard, LinkConfig{})
		seen := 0
		err = l.ServeClientResps(bytes.NewReader(frame), func(*proto.ClientResp) { seen++ })
		if !errors.Is(err, ErrUnknownType) || seen != 1 {
			t.Fatalf("%s after a response: err=%v (want ErrUnknownType), %d responses delivered (want 1)", name, err, seen)
		}
	}
	grant, _ := AppendFrame(nil, proto.ClientResp{Seq: 7})
	grant = append(grant, tCredit, 2, 0, 0, 0, 16, 0)
	binary.LittleEndian.PutUint32(grant, uint32(len(grant)-4))
	binary.LittleEndian.PutUint16(grant[4:], 2)
	l := NewLink(io.Discard, LinkConfig{Credits: 4})
	if err := l.ServeClientResps(bytes.NewReader(grant), func(*proto.ClientResp) {}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("a credit grant after a response: err=%v, want ErrUnknownType", err)
	}
	hostile, _ := AppendFrame(nil, proto.ClientResp{Seq: 7})
	hostile[len(hostile)-5] = 0xEE // [8B seq][1B status][4B len]: the status byte
	l = NewLink(io.Discard, LinkConfig{})
	if err := l.ServeClientResps(bytes.NewReader(hostile), func(*proto.ClientResp) { t.Fatal("hostile status delivered") }); !errors.Is(err, ErrBadEnum) {
		t.Fatalf("status 0xEE: err=%v, want ErrBadEnum", err)
	}

	// Three responses in one frame: credits return in one step.
	l = NewLink(io.Discard, LinkConfig{Credits: 4})
	for i := 0; i < 3; i++ {
		if err := l.SendClientReq(&proto.ClientReq{Seq: uint64(i), Op: proto.OpRead}); err != nil {
			t.Fatal(err)
		}
	}
	if got := window(t, l); got != 1 {
		t.Fatalf("credits after 3 requests = %d, want 1", got)
	}
	frame, err := AppendFrame(nil, proto.ClientResp{Seq: 0}, proto.ClientResp{Seq: 1}, proto.ClientResp{Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ServeClientResps(bytes.NewReader(frame), func(*proto.ClientResp) {}); err != io.EOF {
		t.Fatal(err)
	}
	st := l.Stats()
	if got := window(t, l); got != 4 || st.ImplicitCreditsRecovered != 3 || st.MsgsRecv != 3 || st.FramesRecv != 1 {
		t.Fatalf("after a 3-response frame: credits %d (want 4), stats %+v", got, st)
	}
}
