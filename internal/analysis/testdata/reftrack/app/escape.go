// Golden cases for reftrack's depth-0 owner-escape check: values that may
// alias pooled frame buffers escaping their owner-bearing structs as a bare
// x.Value, with no helper in between.

package app

import "vettest/reftrack/store"

// chunkEscape is the chunk-transfer post-mortem shape: the store entry's
// value shipped into an owner-less record without a clone.
func chunkEscape(e store.Entry) store.Rec {
	return store.Rec{TS: e.TS, Value: e.Value} // want `value aliasing a pooled frame buffer escapes into store\.Rec`
}

// chunkCloned copies at the boundary: green case (any wrapping call passes).
func chunkCloned(e store.Entry) store.Rec {
	return store.Rec{TS: e.TS, Value: store.Clone(e.Value)}
}

// adoptDroppingOwner installs a wire value but forgets the reference that
// pins it — the entry would read recycled bytes after the INV's release.
func adoptDroppingOwner(inv store.INV) store.Entry {
	return store.Entry{Value: inv.Value} // want `store\.Entry adopts a possibly pooled value but drops its owner`
}

// adoptWithOwner transfers the reference alongside the value: green case.
func adoptWithOwner(inv store.INV) store.Entry {
	return store.Entry{Value: inv.Value, Owner: inv.Owner}
}

// adoptHeapValue fills an owner-bearing entry from an owner-less source:
// green case (nothing pooled to pin).
func adoptHeapValue(r store.Rec) store.Entry {
	return store.Entry{Value: r.Value}
}

// fieldEscape stores an owned value into an owner-less struct's field.
func fieldEscape(e store.Entry, r *store.Rec) {
	r.Value = e.Value // want `value aliasing a pooled frame buffer is stored into a field of store\.Rec`
}

// localAlias is the working idiom inside an event-loop turn: green case.
func localAlias(e store.Entry) int {
	v := e.Value
	return len(v)
}

// suppressed documents a site audited by hand.
func suppressed(e store.Entry) store.Rec {
	//hermesvet:ignore reftrack the entry is snapshot-owned by this call's caller and outlives the record
	return store.Rec{Value: e.Value}
}
