package core

import (
	"loggrep/internal/logparse"
	"loggrep/internal/rtpattern"
)

// Options configures compression and the ablation modes of §6.3.
type Options struct {
	// Parse configures static-pattern mining.
	Parse logparse.Options
	// Extract configures runtime-pattern extraction.
	Extract rtpattern.Options

	// StaticOnly builds a LogGrep-SP box (§2.2): variable vectors are
	// stored whole with vector-level stamps; no runtime patterns.
	StaticOnly bool
	// DisableReal stores real-categorized vectors whole ("w/o real").
	DisableReal bool
	// DisableNominal stores nominal-categorized vectors whole ("w/o nomi").
	DisableNominal bool
	// DisableStamps keeps stamps out of the filtering path ("w/o stamp").
	DisableStamps bool
	// DisablePadding stores variable-length capsules and queries them with
	// KMP instead of the fixed-length scan ("w/o fixed").
	DisablePadding bool

	// ChunkBytes, when positive, cuts Capsule payloads larger than this
	// into independently compressed chunks, so fetching single values
	// decompresses one chunk instead of the whole Capsule. 0 (the
	// default) compresses each Capsule whole, as the paper does.
	ChunkBytes int
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Parse:   logparse.DefaultOptions(),
		Extract: rtpattern.DefaultOptions(),
	}
}
