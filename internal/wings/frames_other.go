//go:build !linux || 386

package wings

import "io"

// serveRaw reads no socket raw here: serveFrames' plain loop serves them all.
func (fr *frameReader) serveRaw(io.Reader) (raw bool, err error) { return false, nil }
