package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"weakestfd/internal/fd"
)

// goldenRun is one pinned configuration: the trace digest and a SHA-256 of
// the outcome fingerprint it must reproduce on every build.
type goldenRun struct {
	name    string
	s       *Scenario
	proto   Protocol
	trace   string // Result.TraceFingerprint
	outcome string // hex SHA-256 of Result.Fingerprint()
}

// goldenRuns lists the pinned configurations. The constants were recorded
// with the value-typed event heap, before the heap moved to compact keys
// over a body slab; they hold the scheduler to the same (at, seq) order,
// RNG draws and trace records across that and any later change to the
// event core. The entries after the registers run were recorded later, on
// the build that still carried the free-running dispatcher, and hold the
// rest of the protocol families and the heartbeat detector loops to it.
func goldenRuns() []goldenRun {
	slow := WithDelays(time.Millisecond, 10*time.Millisecond)
	heartbeat := WithDetector(fd.DetectorSpec{Class: "heartbeat", HeartbeatInterval: 50, HeartbeatTimeout: 1000})
	return []goldenRun{
		{"consensus/omega-sigma/-", New(5, WithSeed(201), slow, WithDetectorClass("omega-sigma")), Consensus{},
			"5bb687fce835dcca0ffe003d34cd09ba15c60b28f2a51e902a19e4a26247754c",
			"73d5cdbdc55fb90c917b1ce4ec44fc1ab678c93b567cb8292a28f238b678eccc"},
		{"consensus/omega-sigma/4@5ms", New(5, WithSeed(201), slow, WithDetectorClass("omega-sigma"), WithCrash(4, 5*time.Millisecond)), Consensus{},
			"41eb66a1ee8a49bc0e76ae20365738ffe27664ee9bb9c7224bd38556f748eb59",
			"e6ad9252e4b2976c8d11caf5f040449f10141b028a89eb350ecd9dd4ebf1602f"},
		{"consensus/omega-sigma/0@8ms", New(5, WithSeed(201), slow, WithDetectorClass("omega-sigma"), WithCrash(0, 8*time.Millisecond)), Consensus{},
			"91910c39aa5630a81295b4b80f22e821d9746e6a86228a13bdd032e39ecf0bdd",
			"0212ee5740765d8bd490ca615294d11d331b4c27d528de867c5c4dece86dac5d"},
		{"consensus/perfect/-", New(5, WithSeed(202), slow, WithDetectorClass("perfect")), Consensus{},
			"01c05482cc346ffe1d6d405762ff8dd5feebd06fc7c444d00e63245cbb3ec67f",
			"a431da99deac4d85118363e1cfc6841c15775067e70af46f63e12d959060bcdc"},
		{"consensus/perfect/4@5ms", New(5, WithSeed(202), slow, WithDetectorClass("perfect"), WithCrash(4, 5*time.Millisecond)), Consensus{},
			"2e39bc95adcddc8bd8714aa7daa873091dca8643cd4b3243078264204f839e96",
			"9e53cdf302d5db538b37b4aec4c9a882a46fd6d4d61777554eb8400765adc83f"},
		{"consensus/perfect/0@8ms", New(5, WithSeed(202), slow, WithDetectorClass("perfect"), WithCrash(0, 8*time.Millisecond)), Consensus{},
			"0421436481138b70e554da7c50caa080a3b1e44bb5231212ee1d107d5dcac779",
			"26225e707c626349a67db310da1a6411ca43de984c5f3eb711d04f89fc70e52e"},
		{"consensus/eventually-perfect/-", New(5, WithSeed(203), slow, WithDetectorClass("eventually-perfect")), Consensus{},
			"7a58d5ac7708213096822df0d1ebfa7ddb868bd482978c693ac73f701342372a",
			"a5ce1de9b07a2c6a01eb30f89ecdaebb1dac8bb43a2f9ac979bbd30b53a940ef"},
		{"consensus/eventually-perfect/4@5ms", New(5, WithSeed(203), slow, WithDetectorClass("eventually-perfect"), WithCrash(4, 5*time.Millisecond)), Consensus{},
			"f1354564ecf62b816fd0ccc9d6ac57bfcd8a9ca571c08e347354b7765a887bf0",
			"0ee4eb81e6b932a450081a35aaf810e1cf6ab1f883e57084d1c0bdc5a5baefa3"},
		{"consensus/eventually-perfect/0@8ms", New(5, WithSeed(203), slow, WithDetectorClass("eventually-perfect"), WithCrash(0, 8*time.Millisecond)), Consensus{},
			"8454d10480727a920a57336157489dcb783f1a47c482c275c52d664fa30592fb",
			"ad33d08951bd771fcb6d80d93df9b824d70e6bb073e48f17e0f842f8feaf38aa"},
		// Lossy links: some broadcasts lose recipients, so the batched
		// enqueue skips drop-drawn slots inside a single fan-out.
		{"consensus/n=50/lossy", New(50, WithSeed(5), WithDropRate(0.003)), Consensus{},
			"f934662563397b350671cc93196e466c13576f82504aba62c3e48d88dfa3549a",
			"2d9c4d1a953e4d65d9a8e0d9af29f3aa9f38141a271b38bcf1806cf03068c459"},
		{"nbac", New(4, WithSeed(205)), NBAC{},
			"02efd7c23644aced791c6efc9310ec845a00b2b5cc3587d559bddea54268dcf7",
			"acf04c0d35b8368b365f517ce5c26510bb74bdb845d9f6cc0291a476f1326364"},
		{"registers", New(3, WithSeed(206)), Registers{Values: []int{4, 5, 6}},
			"0ad40646227a4da88720ad3d021572950361fff4ee29939da3a4c5f29e129dbe",
			"d8205c21a565b3eb7006301f14c19335faf0658feb48cccf103fa7d275d323c5"},
		{"qc", New(4, WithSeed(207)), QC{},
			"e2b33d19c5c7100556e1550f8d7fbf435ec236494a59e6846bddfb8484637e4f",
			"afb690c15ada451abf342c077273177752a1209eeb3af33899a018ea2b1bb252"},
		{"twopc", New(4, WithSeed(208)), TwoPC{},
			"11869f238d7fd1d417871341ecfe70f38c8cea9f17845a83ba4cc94980189f0f",
			"373b984630b44eea509bc9931c4bf2116d64e4d9c411bdb4776af40720de12d2"},
		{"nbacqc", New(4, WithSeed(209)), NBACQC{},
			"b8bcc5ff30ab89ee15b6c919798c6c6f3ab9dcb6bab969347315df5f619d67d0",
			"2c1f9e77a9d330cad77fe3a4030af9986c933f44062a8b07d645c5e4ead50114"},
		{"multiconsensus", New(4, WithSeed(210)), MultiConsensus{Rounds: 2},
			"9144052e3bf6528f3f41f96229c189a18aa03401f3d12c76c99ada10a188dac0",
			"cbeae035d76a15a158b7c15a948cb0676b98396b74facdbae1ab2924e633c0db"},
		{"consensus/registers", New(4, WithSeed(211)), Consensus{Registers: true},
			"939d37dddf0a4033d9b3d4c4d64cb7fc5a78ed6dbaeb2bd6b297f7babd4b71b7",
			"a62f40bbe9d1892c7ad099b5d6ccaff64a7a495c2e2b3852c13eadf85b0e70ca"},
		// The leader crashes mid-run, so the heartbeat Ω loops must time it
		// out and fail over before anyone decides.
		{"consensus/heartbeat/0@200us", New(4, WithSeed(212), heartbeat, WithCrash(0, 200*time.Microsecond)), Consensus{},
			"88eaf6950db311c15faeb25c1dd247ce72ea1652f165a97fb3d4a26949bdf99f",
			"200195e07e268b858ffa47da78405293b0f45f6496383c57503ec6c813c3fa6c"},
		// The outcome was recorded with the free-running dispatcher still in
		// the build, when the extractor's loops were plain goroutines and
		// its trace was not reproducible; the trace was recorded once they
		// ran as scheduler tasks.
		{"extract/sigma", New(3, WithSeed(28)), SigmaExtraction{Rounds: 2},
			"ffaaf18668015c30beb106010041ac61cabceeeb9621f315edf9a941f1fa0922",
			"0266d6f361d4718977755031f7e7b539af202d4e10ab8883f5bcc2a8989656ab"},
	}
}

// TestGoldenFingerprints pins the trace and outcome fingerprints of a small
// fixed set of runs to committed constants. The determinism tests compare a
// build with itself; this test compares it with the build the constants were
// recorded on, so a change to the event core that reorders a single event,
// shifts an RNG draw or alters a trace record fails here.
func TestGoldenFingerprints(t *testing.T) {
	ctx := context.Background()
	for _, g := range goldenRuns() {
		t.Run(g.name, func(t *testing.T) {
			res := g.s.Run(ctx, g.proto)
			if !res.Verdict.OK {
				t.Fatalf("verdict %v", res.Verdict)
			}
			sum := sha256.Sum256([]byte(res.Fingerprint()))
			outcome := hex.EncodeToString(sum[:])
			if res.TraceFingerprint != g.trace || outcome != g.outcome {
				t.Errorf("fingerprints moved\n got: %q, %q\nwant: %q, %q\noutcome:\n%s",
					res.TraceFingerprint, outcome, g.trace, g.outcome, res.Fingerprint())
			}
		})
	}
}
