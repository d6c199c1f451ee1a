package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
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
// event core.
func goldenRuns() []goldenRun {
	slow := WithDelays(time.Millisecond, 10*time.Millisecond)
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
