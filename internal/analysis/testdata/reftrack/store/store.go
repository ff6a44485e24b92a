// Package store declares the owner-bearing and owner-less record shapes the
// owner-escape golden cases (app/escape.go) move values between.
package store

import "vettest/reftrack/refbuf"

// Entry is owner-bearing: Value may alias a pooled frame buffer pinned by
// Owner's reference.
type Entry struct {
	Value []byte
	TS    uint64
	Owner *refbuf.Buf
}

// INV is the other owner-bearing shape (a wire message adopting its frame).
type INV struct {
	Key   uint64
	Value []byte
	Owner *refbuf.Buf
}

// Rec carries a value with no owner: anything stored here must be a private
// heap copy.
type Rec struct {
	TS    uint64
	Value []byte
}

// Clone returns a private copy of b.
func Clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
