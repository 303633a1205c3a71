package chaos

import (
	"flag"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/leakcheck"
	"bootes/internal/obs"
)

var (
	episodes      = flag.Int("chaos.episodes", 120, "episodes for TestChaosEpisodes (make chaos raises this for the soak)")
	seed          = flag.Int64("chaos.seed", 20250806, "chaos schedule seed")
	queueEpisodes = flag.Int("chaos.queue-episodes", 500, "episodes for TestQueueCrashSoak")
	fleetEpisodes = flag.Int("chaos.fleet-episodes", 12, "episodes for TestFleetPartitionSoak")
	healEpisodes  = flag.Int("chaos.heal-episodes", 12, "episodes for TestFleetHealSoak (make chaos raises this via HEAL_EPISODES)")
)

// TestChaosEpisodes is the always-on short run: every `go test` executes the
// full seeded schedule and requires zero invariant violations. A failure
// message carries the seed, so any red run reproduces with
// `go test ./internal/chaos -chaos.seed=<seed>`.
func TestChaosEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos episodes skipped in -short mode")
	}
	violationsBefore := verifyViolations()
	rep, err := Run(Config{Seed: *seed, Episodes: *episodes, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed %d: %d invariant violation(s):\n%s",
			*seed, len(rep.Violations), strings.Join(rep.Violations, "\n"))
	}
	if rep.Episodes != *episodes {
		t.Fatalf("ran %d episodes, want %d", rep.Episodes, *episodes)
	}
	// Coverage, not correctness: with ≥100 episodes the schedule must have
	// visited every scenario and armed at least one fault point, otherwise
	// the harness quietly stopped testing anything.
	if *episodes >= 100 {
		for _, sc := range scenarios {
			if rep.Scenarios[sc.name] == 0 {
				t.Errorf("scenario %s never ran in %d episodes", sc.name, rep.Episodes)
			}
		}
		armed := 0
		for _, n := range rep.Faults {
			armed += n
		}
		if armed == 0 {
			t.Error("no fault point was ever armed")
		}
	}
	t.Logf("chaos: %d episodes, scenarios=%v faults=%v healthy=%d degraded=%d refused=%d quarantined=%d verify-violations=%d",
		rep.Episodes, rep.Scenarios, rep.Faults, rep.Healthy, rep.DegradedPlans,
		rep.Refused, rep.Quarantined, verifyViolations()-violationsBefore)
}

// verifyViolations sums bootes_verify_violations_total over every site and
// code.
func verifyViolations() int64 {
	var n int64
	for _, f := range obs.Default().Snapshot() {
		if f.Name == obs.VerifyViolationsName {
			for _, s := range f.Series {
				n += s.Value
			}
		}
	}
	return n
}

// TestQueueCrashSoak hammers the queue-crash scenario alone: hundreds of
// seeded crash/restart cycles across both journal crash points, each asserting
// exactly-once recovery of every acked job. The mixed schedule above visits
// queue-crash ~1/7 of the time; durability bugs hide in rare interleavings,
// so this scenario gets its own dense soak.
func TestQueueCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("queue-crash soak skipped in -short mode")
	}
	root := t.TempDir()
	rep := &Report{Scenarios: make(map[string]int), Faults: make(map[string]int)}
	faultinject.Reset()
	defer faultinject.Reset()
	snap := leakcheck.Take()
	sc := scenario{name: "queue-crash", run: scenarioQueueCrash}
	for i := 0; i < *queueEpisodes; i++ {
		epSeed := *seed ^ (int64(i)+1)*0x5851F42D4C957F2D
		ep := &episode{
			index: i,
			rng:   rand.New(rand.NewSource(epSeed)),
			dir:   filepath.Join(root, fmt.Sprintf("q%05d", i)),
			rep:   rep,
		}
		runGuarded(ep, sc)
		faultinject.Reset()
		ep.sweepCache()
		rep.Episodes++
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: episode %d broke an invariant:\n%s",
				*seed, i, strings.Join(rep.Violations, "\n"))
		}
	}
	if err := snap.Check(); err != nil {
		t.Fatalf("goroutine leak after %d episodes: %v", rep.Episodes, err)
	}
	t.Logf("queue-crash soak: %d episodes, faults=%v", rep.Episodes, rep.Faults)
}

// TestChaosDeterministicSchedule: equal seeds make equal choices. The digest
// covers every scheduling decision (scenario, fault points, trigger options),
// so a drift here means a red soak could not be replayed from its seed.
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Config{Seed: 7, Episodes: 12, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
		}
		return rep
	}
	a, b := run(), run()
	if a.ScheduleDigest != b.ScheduleDigest {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a.ScheduleDigest, b.ScheduleDigest)
	}
	if len(a.ScheduleDigest) != 64 {
		t.Fatalf("malformed digest %q", a.ScheduleDigest)
	}
}

// TestChaosSeedsDiverge: different seeds must explore different schedules —
// a constant digest would mean the rng plumbing is broken and every "random"
// run tests the same path.
func TestChaosSeedsDiverge(t *testing.T) {
	a, err := Run(Config{Seed: 1, Episodes: 8, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 2, Episodes: 8, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleDigest == b.ScheduleDigest {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

func TestChaosRequiresDir(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Episodes: 1}); err == nil {
		t.Fatal("Run accepted an empty scratch dir")
	}
}

// TestFleetPartitionSoak drills the fleet-partition scenario alone: each
// episode is a full warm → owner crash → route-around → restart → converge
// cycle on a real 3-node loopback fleet. The mixed schedule visits it ~1/8
// of the time; routing races (a recompute despite an up replica holding the
// plan, divergence after recovery) need the dense repetition.
func TestFleetPartitionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-partition soak skipped in -short mode")
	}
	rep, err := Run(Config{
		Seed:     *seed,
		Episodes: *fleetEpisodes,
		Dir:      t.TempDir(),
		Only:     "fleet-partition",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed %d: fleet invariants broke:\n%s", *seed, strings.Join(rep.Violations, "\n"))
	}
	if rep.Scenarios["fleet-partition"] != rep.Episodes {
		t.Fatalf("Only filter leaked: scenarios=%v", rep.Scenarios)
	}
	t.Logf("fleet-partition soak: %d episodes, healthy=%d degraded=%d refused=%d",
		rep.Episodes, rep.Healthy, rep.DegradedPlans, rep.Refused)
}

// TestFleetHealSoak drills the self-healing cycle: kill a replica, write
// through the survivors, restart it, and require exact convergence — warmed
// owned ranges before ready, replica digests byte-identical, zero
// recomputes. The acceptance bar is ≥200 episodes (make chaos, HEAL_EPISODES
// knob); the default keeps plain `go test` fast.
func TestFleetHealSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-heal soak skipped in -short mode")
	}
	rep, err := Run(Config{
		Seed:     *seed,
		Episodes: *healEpisodes,
		Dir:      t.TempDir(),
		Only:     "fleet-heal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("seed %d: self-healing invariants broke:\n%s", *seed, strings.Join(rep.Violations, "\n"))
	}
	if rep.Scenarios["fleet-heal"] != rep.Episodes {
		t.Fatalf("Only filter leaked: scenarios=%v", rep.Scenarios)
	}
	t.Logf("fleet-heal soak: %d episodes, healthy=%d degraded=%d refused=%d",
		rep.Episodes, rep.Healthy, rep.DegradedPlans, rep.Refused)
}

// TestChaosUnknownOnly: a typo'd -Only is a loud config error, not a silently
// empty run.
func TestChaosUnknownOnly(t *testing.T) {
	if _, err := Run(Config{Episodes: 1, Dir: t.TempDir(), Only: "no-such-scenario"}); err == nil {
		t.Fatal("unknown Only scenario did not error")
	}
}
