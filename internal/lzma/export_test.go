package lzma

// Encoder lets the external tests drive one encoder state directly, the way
// the pool hands it to successive Compress calls.
type Encoder struct{ e *encoder }

func NewEncoder() Encoder { return Encoder{newEncoder()} }

func (e Encoder) Compress(data []byte) []byte { return e.e.compress(data) }

// SetBase moves the match finder's epoch base, to test the int32 wrap.
func (e Encoder) SetBase(base int32) { e.e.mf.base = base }

func (e Encoder) Base() int32 { return e.e.mf.base }

// RetainsData reports whether the state still references a payload.
func (e Encoder) RetainsData() bool { return e.e.mf.data != nil }
