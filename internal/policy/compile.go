package policy

import (
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// CompileConfig describes one offline compile: the fleet workload
// whose belief trajectories sweep the reachable space, and the replay
// seeds (one fleet run each — more seeds, broader coverage).
type CompileConfig struct {
	// Fleet is the workload template; Seed is overridden per replay.
	// The serving fleet must use the same configuration (the prior
	// hash in the table header enforces the model identity).
	Fleet fleet.Config
	// Seeds are the replay seeds (default: {1}).
	Seeds []int64
	// Duration is each replay's virtual duration (default 30 s).
	Duration time.Duration
	// Note is free-form provenance recorded in the table header.
	Note string
}

// CompileStats reports what a compile saw.
type CompileStats struct {
	// Runs is the number of fleet replays.
	Runs int
	// Stored counts the decisions observed across replays, repeats of
	// a fingerprint included.
	Stored int
	// Unique is the number of distinct fingerprints kept — the table
	// size.
	Unique int
	// Collisions counts decisions dropped because their fingerprint was
	// already held by a different belief (different verification
	// hash); those situations stay on the live-planning path.
	Collisions int
}

// Compile replays the fleet workload once per seed, with no shared cache
// and no table, so every decision is the live planner's own. It records
// each decision the members take (core.Sender.OnDecide) under its
// belief's fingerprint in the fleet's quanta (fleet.TimeQuantum,
// fleet.WeightQuantum) — the first decision under a fingerprint wins —
// and returns the sorted record set with a header binding it to the
// workload's resolved prior and those quanta. Write it with WriteTable,
// serve it with Open + NewServer.
func Compile(cfg CompileConfig) (Header, []Record, CompileStats, error) {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}

	const tq, wq = fleet.TimeQuantum, fleet.WeightQuantum
	var stats CompileStats
	seen := make(map[uint64]Record)
	var fleetN uint32

	for _, seed := range cfg.Seeds {
		fc := cfg.Fleet
		fc.Seed = seed
		fc.NoSharedCache = true
		fc.Table = nil // the compile must plan live, not serve itself
		fl := fleet.New(fc)
		fleetN = uint32(fl.Cfg.N)
		record := func(w *planner.Wake, pending []model.Send, d planner.Decision) {
			stats.Stored++
			fp, ver := w.Fingerprint(pending, tq, wq)
			if prev, ok := seen[fp]; ok {
				if prev.Verify != ver {
					stats.Collisions++
				}
				return
			}
			seen[fp] = Record{FP: fp, Verify: ver, SendNow: d.SendNow, Delta: d.WakeAt - w.Now(), Gain: d.Gain}
		}
		for _, m := range fl.Members {
			m.Sender.OnDecide = record
		}
		fl.Run(cfg.Duration)
		stats.Runs++
	}

	recs := make([]Record, 0, len(seen))
	for _, r := range seen {
		recs = append(recs, r)
	}
	sortRecords(recs)
	stats.Unique = len(recs)

	h := Header{
		Version:       Version,
		FleetN:        fleetN,
		Records:       uint64(len(recs)),
		TimeQuantum:   tq,
		WeightQuantum: wq,
		PriorHash:     HashPrior(cfg.Fleet.ResolvedPrior(), tq, wq),
		BuildSeed:     cfg.Seeds[0],
		Created:       time.Now().Unix(),
		Note:          cfg.Note,
	}
	return h, recs, stats, nil
}
