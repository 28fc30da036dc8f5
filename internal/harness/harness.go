package harness

import (
	"context"
	"time"

	"loggrep/internal/baselines/clp"
	"loggrep/internal/baselines/eslite"
	"loggrep/internal/baselines/ggrep"
	"loggrep/internal/core"
)

// Querier answers a grep-like query with matching line numbers and their
// reconstructed text.
type Querier interface {
	Query(command string) (lines []int, entries []string, err error)
}

// System is one log storage system under test.
type System struct {
	Name     string
	Compress func(block []byte) ([]byte, error)
	Open     func(data []byte) (Querier, error)
}

// coreQuerier adapts core.Store to the harness interface.
type coreQuerier struct{ st *core.Store }

func (q coreQuerier) Query(command string) ([]int, []string, error) {
	res, err := q.st.Search(context.Background(), command, core.SearchOpts{})
	if err != nil {
		return nil, nil, err
	}
	return res.Lines, res.Entries, nil
}

// LogGrepSystem builds a System from core options.
func LogGrepSystem(name string, opts core.Options, qopts core.QueryOptions) System {
	return System{
		Name:     name,
		Compress: func(block []byte) ([]byte, error) { return core.Compress(block, opts), nil },
		Open: func(data []byte) (Querier, error) {
			st, err := core.Open(data, qopts)
			if err != nil {
				return nil, err
			}
			return coreQuerier{st}, nil
		},
	}
}

// CoreSystems returns the five systems of Figures 7 and 8, in the paper's
// order: ggrep, CLP, ES, LogGrep-SP, LogGrep.
func CoreSystems() []System {
	spOpts := core.DefaultOptions()
	spOpts.StaticOnly = true
	return []System{
		{
			Name:     "ggrep",
			Compress: ggrep.Compress,
			Open: func(d []byte) (Querier, error) {
				st, err := ggrep.Open(d)
				if err != nil {
					return nil, err
				}
				return st, nil
			},
		},
		{
			Name:     "CLP",
			Compress: clp.Compress,
			Open: func(d []byte) (Querier, error) {
				st, err := clp.Open(d)
				if err != nil {
					return nil, err
				}
				return st, nil
			},
		},
		{
			Name:     "ES",
			Compress: eslite.Index,
			Open: func(d []byte) (Querier, error) {
				st, err := eslite.Open(d)
				if err != nil {
					return nil, err
				}
				return st, nil
			},
		},
		LogGrepSystem("LG-SP", spOpts, core.QueryOptions{}),
		LogGrepSystem("LG", core.DefaultOptions(), core.QueryOptions{}),
	}
}

// AblationSystems returns full LogGrep plus the §6.3 ablations (the query
// cache ablation is driven separately by RunFig9Cache, since it only shows
// in refining mode).
func AblationSystems() []System {
	noReal := core.DefaultOptions()
	noReal.DisableReal = true
	noNomi := core.DefaultOptions()
	noNomi.DisableNominal = true
	noStamp := core.DefaultOptions()
	noStamp.DisableStamps = true
	noFixed := core.DefaultOptions()
	noFixed.DisablePadding = true
	return []System{
		LogGrepSystem("LG", core.DefaultOptions(), core.QueryOptions{}),
		LogGrepSystem("w/o real", noReal, core.QueryOptions{}),
		LogGrepSystem("w/o nomi", noNomi, core.QueryOptions{}),
		LogGrepSystem("w/o stamp", noStamp, core.QueryOptions{}),
		LogGrepSystem("w/o fixed", noFixed, core.QueryOptions{}),
	}
}

// timeIt runs f and returns its duration in seconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// bestOf runs f reps times and returns the minimum duration (the usual
// benchmarking guard against scheduling noise).
func bestOf(reps int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
