package invariant_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"grefar/internal/core"
	"grefar/internal/experiments"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/sim"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// actionLog keeps the action of every applied slot.
type actionLog struct{ actions []*model.Action }

func (a *actionLog) WantsSlotDetail() bool { return true }

func (a *actionLog) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin == telemetry.OriginSim && ev.Detail != nil {
		a.actions = append(a.actions, ev.Detail.Action)
	}
}

// actionDigest hashes every bit of an action: routes, processing and busy
// servers, in row order.
func actionDigest(a *model.Action) string {
	h := sha256.New()
	var buf [8]byte
	for i := range a.Route {
		for _, r := range a.Route[i] {
			binary.LittleEndian.PutUint64(buf[:], uint64(r))
			h.Write(buf[:])
		}
		for _, p := range a.Process[i] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
		for _, b := range a.Busy[i] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinnedStream renders a run as its golden form: the JSONL event stream,
// then one line per slot with the digest of the action decided.
func pinnedStream(t *testing.T, rec *invariant.TraceRecorder, acts []*model.Action) []byte {
	t.Helper()
	out, err := rec.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	for s, a := range acts {
		out = fmt.Appendf(out, "{\"slot\":%d,\"action_sha256\":%q}\n", s, actionDigest(a))
	}
	return out
}

// checkPinned compares a pinned stream with its golden file. The files were
// recorded from the dense decide path, which is gone, so there is nothing to
// regenerate them from: a diff here is a behavior change.
func checkPinned(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".jsonl")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if diff := invariant.DiffJSONL(got, want); diff != "" {
		t.Errorf("stream deviates from %s:\n%s", path, diff)
	}
}

// pinnedTariffSlots is the horizon of the convex-tariff goldens.
const pinnedTariffSlots = 200

// TestAutoSolverBitIdentical replays the default scheduler against streams
// recorded from the dense N*J slot layout, the reference the compact
// active-pair layout was held to until the dense one was deleted: the
// reference workload billed under a quadratic tariff (the section III-A2
// extension) at beta = 0 and beta = 100, and a drifting 200x100 instance with
// a tenth of its pairs backlogged. Events and every action bit must match.
func TestAutoSolverBitIdentical(t *testing.T) {
	quad, err := tariff.NewQuadratic(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file string
		beta       float64
	}{
		{"beta=0", "tariff-quadratic-v7.5-beta0", 0},
		{"beta=100", "tariff-quadratic-v7.5-beta100", 100},
	} {
		t.Run("golden/"+tc.name, func(t *testing.T) {
			in, err := sim.NewReferenceInputs(goldenSeed, pinnedTariffSlots)
			if err != nil {
				t.Fatal(err)
			}
			in.Tariff = quad
			rec, acts := &invariant.TraceRecorder{}, &actionLog{}
			g, err := core.New(in.Cluster, core.Config{
				V: 7.5, Beta: tc.beta, Tariff: quad, Observer: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			opt := sim.Options{Slots: pinnedTariffSlots, Observer: telemetry.Multi(rec, acts), ValidateActions: true, Check: true}
			if _, err := sim.Run(in, g, opt); err != nil {
				t.Fatal(err)
			}
			if len(acts.actions) != pinnedTariffSlots {
				t.Fatalf("captured %d actions, want %d", len(acts.actions), pinnedTariffSlots)
			}
			checkPinned(t, tc.file, pinnedStream(t, rec, acts.actions))
		})
	}

	t.Run("N=200/J=100", func(t *testing.T) {
		const slots = 12
		in, err := experiments.NewSolverScaleInstance(goldenSeed, 200, 100, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		rec := &invariant.TraceRecorder{}
		g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100, Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		var acts []*model.Action
		for s := 0; s < slots; s++ {
			act, err := g.Decide(s, in.State, in.Lengths)
			if err != nil {
				t.Fatal(err)
			}
			// Clone: the scheduler rewrites act on its next Decide.
			acts = append(acts, act.Clone())
			in.Mutate()
		}
		checkPinned(t, "solverscale-200x100-v7.5-beta100", pinnedStream(t, rec, acts))
	})
}
