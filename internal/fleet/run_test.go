package fleet_test

import (
	"testing"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/shard"
)

// TestFleetRunIsIncremental: Run drives a fleet to an absolute virtual
// time and starts its members once, however often it or Start is
// called, so a run taken in steps is the run taken at once: Start,
// Run(10 s), Run(23 s) ends on the digest of Run(23 s) on a fleet of
// the same Config.
func TestFleetRunIsIncremental(t *testing.T) {
	cfg := fleet.Config{N: 16, Seed: 11}
	once := fleet.New(cfg)
	once.Run(23 * time.Second)
	stepped := fleet.New(cfg)
	stepped.Start()
	stepped.Run(10 * time.Second)
	stepped.Run(23 * time.Second)
	if a, b := shard.DigestFleet(once), shard.DigestFleet(stepped); a != b {
		t.Fatalf("digest %016x after Run(23 s), %016x after Start, Run(10 s), Run(23 s)", a, b)
	}
}
