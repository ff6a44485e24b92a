package wings

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
)

// FuzzDecodeMsg drives the per-message body decoder with every tag. The
// properties: decodeMsg never panics, and anything it accepts re-encodes.
func FuzzDecodeMsg(f *testing.F) {
	// The seed list is the fuzz registry: every wire tag constant must appear
	// here so fuzzing covers each frame type (hermes-vet's wingscodec
	// analyzer enforces the listing).
	wireTags := []uint8{
		tINV, tACK, tVAL, tMCheck, tMCheckAck, tChunkReq, tChunkResp, tCredit,
		tShard, tShardBatch, tMUpdate, tViewLogReq, tViewLogResp, tClientReq,
		tClientResp, tEpochGossip,
	}
	for _, tag := range wireTags {
		f.Add(tag, []byte{})
		f.Add(tag, bytes.Repeat([]byte{0xff}, 40))
	}
	// Well-formed bodies so the fuzzer starts from deep decoder states.
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		// Encode's frame layout: [4B len][2B count][1B tag][4B bodyLen][body].
		f.Add(frame[6], frame[11:])
	}
	f.Fuzz(func(t *testing.T, tag uint8, body []byte) {
		msg, err := decodeMsg(tag, body, nil)
		if err != nil {
			return
		}
		if _, err := Encode(msg); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
	})
}

// genericClientReqs is FuzzClientFrames' reference: a frame walk of its own
// over the whole stream, sharing no code with the stream reader under test,
// each message through decodeMsg — the decoder all message types share — and
// only then asked whether it is a request, which is how the server read its
// stream before it had a typed loop.
func genericClientReqs(stream []byte) (reqs []proto.ClientReq, err error) {
	for len(stream) > 0 {
		if len(stream) < 4 {
			return reqs, io.ErrUnexpectedEOF
		}
		n := int(binary.LittleEndian.Uint32(stream))
		if n < 2 || n > maxFrame {
			return reqs, fmt.Errorf("bad frame length %d", n)
		}
		if len(stream)-4 < n {
			return reqs, io.ErrUnexpectedEOF
		}
		frame := stream[4 : 4+n]
		stream = stream[4+n:]
		count := int(binary.LittleEndian.Uint16(frame))
		for i, off := 0, 2; i < count; i++ {
			tag, body, err := nextMsg(frame, &off)
			if err != nil {
				return reqs, err
			}
			msg, err := decodeMsg(tag, body, nil)
			if err != nil {
				return reqs, err
			}
			req, ok := msg.(proto.ClientReq)
			if !ok {
				return reqs, ErrUnknownType
			}
			reqs = append(reqs, req)
		}
	}
	return reqs, io.EOF
}

// FuzzClientFrames holds the server's typed loop to the generic decoder on
// hostile input: an arbitrary byte stream is accepted or refused alike by
// both, at the same message, and what they deliver before that are equal
// requests. (They differ, by design, in how much of a non-request they read
// before refusing it: the typed loop its tag, the generic decoder all of it.)
// The typed loop runs twice, without and with a key hook and an end-of-frame
// hook: the hooks change nothing it delivers or refuses, the key hook sees
// each served request's key before that request is delivered and no other
// key, and the end hook has run after the last delivered request.
func FuzzClientFrames(f *testing.F) {
	for _, seed := range clientFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		var typed []proto.ClientReq
		typedErr := ServeClientReqs(bytes.NewReader(stream), nil, func(m *proto.ClientReq) error {
			typed = append(typed, *m)
			return nil
		}, nil)
		generic, genericErr := genericClientReqs(stream)
		if (typedErr == io.EOF) != (genericErr == io.EOF) {
			t.Fatalf("typed loop ended with %v, generic decoder with %v", typedErr, genericErr)
		}
		if !reflect.DeepEqual(typed, generic) {
			t.Fatalf("typed loop delivered %+v, generic decoder %+v", typed, generic)
		}

		var hooked []proto.ClientReq
		var seen []proto.Key
		ended := 0 // requests delivered when the end hook last ran
		hookedErr := ServeClientReqs(bytes.NewReader(stream), func(keys []proto.Key) {
			seen = append(seen, keys...)
		}, func(m *proto.ClientReq) error {
			if len(seen) <= len(hooked) || seen[len(hooked)] != m.Key {
				t.Fatalf("request %d (key %d) delivered before the hook saw its key (saw %v)", len(hooked), m.Key, seen)
			}
			hooked = append(hooked, *m)
			return nil
		}, func() { ended = len(hooked) })
		if fmt.Sprint(hookedErr) != fmt.Sprint(typedErr) {
			t.Fatalf("with the key hook the loop ended with %v, without it with %v", hookedErr, typedErr)
		}
		if !reflect.DeepEqual(hooked, typed) {
			t.Fatalf("with the key hook the loop delivered %+v, without it %+v", hooked, typed)
		}
		if len(seen) != len(hooked) {
			t.Fatalf("the hook saw %d keys for %d served requests: %v", len(seen), len(hooked), seen)
		}
		if ended != len(hooked) {
			t.Fatalf("the end hook last ran after request %d of %d", ended, len(hooked))
		}
	})
}

// clientFrameSeeds is FuzzClientFrames' seed corpus: client-session streams,
// well-formed and hostile.
func clientFrameSeeds(tb testing.TB) (seeds [][]byte) {
	for _, msgs := range [][]any{
		{proto.ClientReq{Seq: 1, Op: proto.OpRead, Key: 42}},
		{proto.ClientReq{Seq: 2, Op: proto.OpCAS, Key: 7, Value: proto.Value("new"), Expected: proto.Value("old")},
			proto.ClientReq{Seq: 3, Op: proto.OpFAA, Key: 8, Value: proto.EncodeInt64(5)}},
		{proto.ClientReq{Seq: 4, Op: proto.OpWrite, Key: 9, Value: make(proto.Value, 32)},
			proto.ClientResp{Seq: 4, Status: proto.OK}},
		{proto.ClientResp{Seq: 5, Status: proto.CASFailed, Value: proto.Value("observed")}},
		{core.ACK{Epoch: 1, Key: 1}},
	} {
		frame, err := AppendFrame(nil, msgs...)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	// Hand-built: a credit grant, and an op and a status outside their enums.
	seeds = append(seeds, []byte{9, 0, 0, 0, 1, 0, tCredit, 2, 0, 0, 0, 8, 0})
	seeds = append(seeds, append([]byte{32, 0, 0, 0, 1, 0, tClientReq, 25, 0, 0, 0}, clientReqBody(1, 0xEE, 2, nil, nil)...))
	seeds = append(seeds, append([]byte{20, 0, 0, 0, 1, 0, tClientResp, 13, 0, 0, 0}, clientRespBody(1, 0xEE, nil)...))
	// A request body cut short inside its key (16 of 17 bytes), after a good
	// request; and a count of 0xFFFF over a frame holding one request.
	good := clientReqBody(1, byte(proto.OpRead), 5, nil, nil)
	cut := append(append([]byte{0, 0, 0, 0, 2, 0, tClientReq, byte(len(good)), 0, 0, 0}, good...), tClientReq, 16, 0, 0, 0)
	cut = append(cut, good[:16]...)
	binary.LittleEndian.PutUint32(cut, uint32(len(cut)-4))
	seeds = append(seeds, cut)
	hostile := append([]byte{0, 0, 0, 0, 0xFF, 0xFF, tClientReq, byte(len(good)), 0, 0, 0}, good...)
	binary.LittleEndian.PutUint32(hostile, uint32(len(hostile)-4))
	seeds = append(seeds, hostile)
	// More requests in one frame than one call of the hook carries.
	var many []any
	for i := 0; i < 2*keyWindow+3; i++ {
		many = append(many, proto.ClientReq{Seq: uint64(i), Op: proto.OpRead, Key: proto.Key(i * 3)})
	}
	manyFrame, err := AppendFrame(nil, many...)
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, manyFrame)
	return seeds
}

// FuzzDecodeOne drives the whole-frame decoder (length header included).
func FuzzDecodeOne(f *testing.F) {
	for _, seed := range linkFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		_, _ = DecodeOne(frame) // must not panic
	})
}

// linkFrameSeeds is FuzzDecodeOne's seed corpus: one frame of every sample
// message, and a length header past maxFrame.
func linkFrameSeeds(tb testing.TB) (seeds [][]byte) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	return append(seeds, hdr[:])
}

// FuzzEpochGossipCount targets the tEpochGossip shard-count bound: a count
// field claiming more epochs than the body holds must be rejected before the
// preallocation, the tShardBatch/tViewLogResp discipline.
func FuzzEpochGossipCount(f *testing.F) {
	base, err := Encode(proto.EpochGossip{Epochs: []uint32{3, 3, 5}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base, uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, frame []byte, count uint16) {
		// Body starts at offset 11: [2B count][4B epoch each].
		if len(frame) < 13 || frame[6] != tEpochGossip {
			return
		}
		frame = append([]byte(nil), frame...)
		binary.LittleEndian.PutUint16(frame[11:], count)
		msg, err := DecodeOne(frame)
		if err != nil {
			return
		}
		eg, ok := msg.(proto.EpochGossip)
		if !ok {
			return
		}
		if len(eg.Epochs) != int(count) {
			t.Fatalf("accepted EpochGossip with count %d but %d epochs", count, len(eg.Epochs))
		}
	})
}

// TestChunkRespHostileCount pins the tChunkResp record-count bound: a count
// claiming more records than the remaining bytes could hold must be rejected
// up front (regression: the decode loop previously trusted the wire count).
func TestChunkRespHostileCount(t *testing.T) {
	frame, err := Encode(core.ChunkResp{Epoch: 1, Cursor: 2,
		Keys: []proto.Key{9},
		Recs: []core.ChunkRec{{TS: proto.TS{Version: 1}, Value: proto.Value("x")}}})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(frame[24:], 1<<30) // count field of the body
	if _, err := DecodeOne(frame); err == nil {
		t.Fatal("hostile ChunkResp count accepted")
	}
}

// FuzzChunkRespCount targets the tChunkResp record-count bound specifically:
// a count field claiming more records than the body holds must be rejected
// without allocating (regression for the unchecked append loop).
func FuzzChunkRespCount(f *testing.F) {
	base, err := Encode(core.ChunkResp{Epoch: 1, Cursor: 2, Done: false,
		Keys: []proto.Key{9},
		Recs: []core.ChunkRec{{TS: proto.TS{Version: 1}, Value: proto.Value("x")}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base, uint32(1<<31))
	f.Fuzz(func(t *testing.T, frame []byte, count uint32) {
		// Body starts at offset 11: [4B epoch][8B cursor][1B done][4B count].
		if len(frame) < 28 || frame[6] != tChunkResp {
			return
		}
		frame = append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(frame[24:], count)
		msg, err := DecodeOne(frame)
		if err != nil {
			return
		}
		cr, ok := msg.(core.ChunkResp)
		if !ok {
			return
		}
		if len(cr.Recs) != int(count) {
			t.Fatalf("accepted ChunkResp with count %d but %d records", count, len(cr.Recs))
		}
	})
}
