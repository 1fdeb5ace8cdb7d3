package experiments

import (
	"io"

	"powl/internal/core"
	"powl/internal/obs"
)

// ProfileConfig selects the run that Profile instruments.
type ProfileConfig struct {
	// Engine defaults to the hybrid engine (the paper's measured worst
	// case, and the most interesting rule profile).
	Engine core.EngineKind
	// Workers defaults to 4.
	Workers int
	// Journal, when non-empty, receives the run journal as JSONL.
	Journal string
	// Trace, when non-empty, receives the Chrome/Perfetto trace export.
	Trace string
}

// Profile runs one fully instrumented Simulated materialization — LUBM at
// this scale, data partitioning, file transport — writes the requested
// journal/trace files, and prints the profile report to w. It is the
// library half of `experiments -journal/-trace`.
func Profile(w io.Writer, scale Scale, cfg ProfileConfig) error {
	if cfg.Engine == "" {
		cfg.Engine = core.HybridEngine
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	ds := scale.Datasets()[0] // LUBM
	sink := &obs.MemSink{}
	run := obs.NewRun(sink, obs.NewRegistry())
	res, err := core.Materialize(ds, core.Config{
		Workers:   cfg.Workers,
		Strategy:  core.DataPartitioning,
		Policy:    core.GraphPolicy,
		Engine:    cfg.Engine,
		Transport: core.FileTransport,
		Simulate:  true,
		Seed:      42,
		Obs:       run,
	})
	if err != nil {
		return err
	}
	events := sink.Events()
	if err := obs.WriteFiles(w, events, cfg.Journal, cfg.Trace); err != nil {
		return err
	}

	fprintf(w, "profile: %s, k=%d, %d triples closed (%d inferred), %d rounds, simulated elapsed %v\n\n",
		cfg.Engine, cfg.Workers, res.Graph.Len(), res.Inferred, res.Rounds, res.Elapsed)
	obs.WriteReport(w, events, 10)
	return nil
}
