package model_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/schedule"
)

// TestTheorem13ChainCAS runs the mechanized Theorem 13 construction on
// recoverable CAS consensus: the very first critical configuration is
// already n-recording (CAS records the winner forever), so the chain ends
// at stage 0.
func TestTheorem13ChainCAS(t *testing.T) {
	for n := 2; n <= 3; n++ {
		pr := proto.NewCASRecoverable(n)
		inputs := make([]int, n)
		inputs[0] = 1
		quota := make([]int, n)
		for p := 1; p < n; p++ {
			quota[p] = 1
		}
		chain, err := model.Theorem13Chain(pr, inputs, quota)
		if err != nil {
			t.Fatalf("n=%d: %v\n%s", n, err, chain)
		}
		if !chain.Recording {
			t.Errorf("n=%d: chain did not reach n-recording:\n%s", n, chain)
		}
		if len(chain.Stages) != 1 {
			t.Logf("n=%d: chain took %d stages:\n%s", n, len(chain.Stages), chain)
		}
	}
}

// TestTheorem13ChainTnnRecoverable runs the construction on the paper's
// own recoverable algorithm within its process bound: Theorem 13
// guarantees the chain reaches an n-recording configuration, certifying
// that T_{n,n'} is n'-recording (n' = procs here).
func TestTheorem13ChainTnnRecoverable(t *testing.T) {
	cases := []struct{ n, np int }{{4, 2}, {5, 2}, {4, 3}}
	for _, c := range cases {
		pr := proto.NewTnnRecoverable(c.n, c.np, c.np)
		inputs := make([]int, c.np)
		inputs[0] = 1
		quota := make([]int, c.np)
		for p := 1; p < c.np; p++ {
			quota[p] = 2
		}
		chain, err := model.Theorem13Chain(pr, inputs, quota)
		if err != nil {
			t.Fatalf("T[%d,%d]: %v\n%s", c.n, c.np, err, chain)
		}
		if !chain.Recording {
			t.Errorf("T[%d,%d]: chain did not reach n-recording:\n%s", c.n, c.np, chain)
		}
		if len(chain.Stages) > c.np {
			t.Errorf("T[%d,%d]: chain took %d stages, paper bounds l <= n-1",
				c.n, c.np, len(chain.Stages))
		}
	}
}

// TestTheorem13ChainRendering checks the report form.
func TestTheorem13ChainRendering(t *testing.T) {
	pr := proto.NewCASRecoverable(2)
	chain, err := model.Theorem13Chain(pr, []int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := chain.String()
	for _, want := range []string{"stage 0", "class=", "n-recording configuration"} {
		if !strings.Contains(s, want) {
			t.Errorf("chain rendering missing %q:\n%s", want, s)
		}
	}
}

// TestTheorem13ChainUnivalentStart: with equal inputs the initial
// configuration is univalent and the chain cannot start.
func TestTheorem13ChainUnivalentStart(t *testing.T) {
	pr := proto.NewCASRecoverable(2)
	if _, err := model.Theorem13Chain(pr, []int{1, 1}, []int{0, 1}); err == nil {
		t.Error("expected failure from a univalent initial configuration")
	}
}

// chainCases are the property-test protocols: the registry families with
// known multi- and single-stage chains.
func chainCases() []struct {
	name   string
	pr     model.Protocol
	inputs []int
	quota  []int
} {
	return []struct {
		name   string
		pr     model.Protocol
		inputs []int
		quota  []int
	}{
		{"cas-rec-2", proto.NewCASRecoverable(2), []int{1, 0}, []int{0, 1}},
		{"cas-rec-3", proto.NewCASRecoverable(3), []int{1, 0, 0}, []int{0, 1, 1}},
		{"tnn-rec-4-2", proto.NewTnnRecoverable(4, 2, 2), []int{1, 0}, []int{0, 2}},
		{"tnn-rec-4-3", proto.NewTnnRecoverable(4, 3, 3), []int{1, 0, 0}, []int{0, 2, 2}},
		{"tas-reg", proto.NewTASConsensus(), []int{1, 0}, []int{0, 2}},
	}
}

// nextStageStart is the reference for the chain's moves: the start of
// the stage after st, in an n-process protocol — st's start and critical
// trace, then the Figure 2 crash of team v's maximal suffix for a
// v-hiding stage, or Figure 1's step-and-crash of p_{n-1} for a
// colliding one.
func nextStageStart(st model.ChainStage, n int) schedule.Schedule {
	next := st.Start.Concat(st.Info.Trace)
	switch st.Info.Class {
	case "0-hiding", "1-hiding":
		v := int(st.Info.Class[0] - '0')
		k := n - 1
		for k > 0 && st.Info.Teams[k-1] == v {
			k--
		}
		for p := k; p < n; p++ {
			next = next.Append(schedule.Crash(p))
		}
	case "colliding":
		next = next.Append(schedule.Step(n-1), schedule.Crash(n-1))
	}
	return next
}

// TestTheorem13ChainGraphMatchesPerStage is the chain byte-identity
// property test: the shared-graph construction must produce stages
// identical — start schedules, critical traces, classifications, team
// vectors, critical configurations — to a direct serial replay of every
// stage (a fresh model.Check from the stage's start prefix followed by
// FindCritical). A chain that fails must fail with the error the serial
// replay of its next stage gives.
func TestTheorem13ChainGraphMatchesPerStage(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			shared, errShared := model.Theorem13ChainOpts(tc.pr, tc.inputs, tc.quota, model.ChainOpts{})
			serial := func(stage int, start schedule.Schedule) (*model.CriticalInfo, error) {
				res, err := model.Check(tc.pr, model.CheckOpts{
					Inputs:       tc.inputs,
					CrashQuota:   tc.quota,
					StartTrace:   start,
					SkipLiveness: true,
				})
				if err != nil {
					return nil, err
				}
				info, err := model.FindCritical(res)
				if err != nil {
					return nil, fmt.Errorf("stage %d: %w", stage, err)
				}
				return info, nil
			}

			start := schedule.Schedule{}
			for i, st := range shared.Stages {
				if got, want := st.Start.String(), start.String(); got != want {
					t.Fatalf("stage %d: start diverged: got [%s] want [%s]", i, got, want)
				}
				info, err := serial(i, start)
				if err != nil {
					t.Fatalf("stage %d serial replay: %v", i, err)
				}
				if got, want := st.Info.Trace.String(), info.Trace.String(); got != want {
					t.Fatalf("stage %d: trace diverged: got [%s] want [%s]", i, got, want)
				}
				if st.Info.Class != info.Class {
					t.Fatalf("stage %d: class diverged: got %s want %s", i, st.Info.Class, info.Class)
				}
				if !reflect.DeepEqual(st.Info.Teams, info.Teams) {
					t.Fatalf("stage %d: teams diverged: got %v want %v", i, st.Info.Teams, info.Teams)
				}
				if st.Info.Config.String() != info.Config.String() {
					t.Fatalf("stage %d: critical configuration diverged", i)
				}
				start = nextStageStart(st, tc.pr.Procs())
			}
			if errShared != nil {
				_, errSerial := serial(len(shared.Stages), start)
				if errSerial == nil || errSerial.Error() != errShared.Error() {
					t.Fatalf("chain failed with %v, serial replay of its next stage with %v",
						errShared, errSerial)
				}
			} else if !shared.Recording {
				t.Fatalf("chain ended without error and without recording:\n%s", shared)
			}
		})
	}
}

// TestTheorem13ChainSharedGraphExpandsOnce quantifies the tentpole: a
// chain on one shared graph never expands more than per-stage one-shot
// graphs would, and — the acceptance criterion — the graph's Expanded
// counter is FLAT after the first stage: every later stage's walk is
// served entirely from the stage-0 expansion. The registry's recoverable
// protocols end n-recording at stage 0, so the multi-walk case is
// tas-reg: its colliding stage-0 classification forces the Figure 1 move
// and a second full exploration from the shifted root (which then fails
// FindCritical — wait-free-only algorithms are expected to; the stage-1
// walk still ran, and is what this test measures).
func TestTheorem13ChainSharedGraphExpandsOnce(t *testing.T) {
	for _, tc := range chainCases() {
		t.Run(tc.name, func(t *testing.T) {
			g, err := model.NewGraph(tc.pr, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			var perStage []model.GraphStats
			shared, chainErr := model.Theorem13ChainOpts(tc.pr, tc.inputs, tc.quota, model.ChainOpts{
				Graph:   g,
				OnStage: func(int, *model.CriticalInfo) { perStage = append(perStage, g.Stats()) },
			})
			if chainErr != nil && len(shared.Stages) == 0 {
				t.Fatalf("chain failed before any stage: %v", chainErr)
			}
			if len(perStage) > 0 {
				afterStage0 := perStage[0].Expanded
				if final := g.Stats().Expanded; final != afterStage0 {
					t.Fatalf("Expanded not flat across stages: %d after stage 0, %d at the end",
						afterStage0, final)
				}
			}

			// The per-stage baseline: total expansions when every stage
			// explores its own one-shot graph (exactly what the shared
			// chain's walks covered, minus a possibly erroring final
			// stage whose walk the shared graph additionally absorbed).
			var freshTotal uint64
			for _, st := range shared.Stages {
				fg, err := model.NewGraph(tc.pr, tc.inputs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fg.Check(model.CheckOpts{
					Inputs:     tc.inputs,
					CrashQuota: tc.quota,
					StartTrace: st.Start, SkipLiveness: true,
				}); err != nil {
					t.Fatal(err)
				}
				freshTotal += fg.Stats().Expanded
			}
			if sharedTotal := g.Stats().Expanded; sharedTotal > freshTotal {
				t.Fatalf("shared graph expanded more (%d) than per-stage total (%d)",
					sharedTotal, freshTotal)
			}
		})
	}
}
