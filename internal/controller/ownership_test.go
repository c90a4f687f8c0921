package controller_test

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"grefar/internal/controller"
	"grefar/internal/hollow"
	"grefar/internal/model"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// detailKeeper retains every SlotDetail it is handed, as a verification
// consumer may.
type detailKeeper struct{ details map[int]*telemetry.SlotDetail }

func (k *detailKeeper) ObserveSlot(ev telemetry.SlotEvent) { k.details[ev.Slot] = ev.Detail }
func (k *detailKeeper) WantsSlotDetail() bool              { return true }

// slotOutputs is everything one slot hands out: RunSlot's return values and
// the detail its observer received.
type slotOutputs struct {
	Action *model.Action
	State  *model.State
	Acks   []transport.AllocateAck
	// SlotDetail's own fields are hidden from encoding/json, so they are
	// listed here.
	DetailState          *model.State
	DetailAction         *model.Action
	Pre, Post            any
	Arrivals             []int
	Routed, ProcessedJob [][]float64
}

// TestSlotOutputsBelongToTheCaller pins "returned or observed means fresh per
// slot". The loop decodes each slot's acks into slices it cut beforehand,
// reuses its gather and scatter scratch, keeps the slot's backlog and
// shadow-replay matrices, and assembles the state on one array; none of that
// may be visible to a caller who keeps what slot t returned, or to an
// observer who keeps its detail, while slots t+1 and t+2 run. One agent is
// down, so a masked site's zero ack is among the outputs, and another loses
// slot t's allocate, so a synthesized ack is too. Without an observer the
// loop keeps every matrix in its scratch; the caller's outputs must not care.
func TestSlotOutputsBelongToTheCaller(t *testing.T) {
	const agents, down, lost, keep = 8, 5, 6, 3
	for _, lc := range []loopCtor{loopCtors[0], planeCtor("controlplane.New/P=2", 2, false), {
		name: "controller.New/unobserved",
		build: func(c *model.Cluster, conns []controller.AgentConn, policy controller.FailurePolicy, _ telemetry.SlotObserver) (*controller.Controller, error) {
			return loopCtors[0].build(c, conns, policy, nil)
		},
	}} {
		t.Run(lc.name, func(t *testing.T) {
			in, err := hollow.NewScaleInputs(2012, agents, 16)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := hollow.NewFleet(in, hollow.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			fleet.Kill(down)
			conns := fleet.Conns()
			var failAlloc atomic.Bool
			conns[lost] = allocGateConn{inner: conns[lost], fail: &failAlloc}
			keeper := &detailKeeper{details: map[int]*telemetry.SlotDetail{}}
			ct, err := lc.build(in.Cluster, conns, controller.Degrade, keeper)
			if err != nil {
				t.Fatal(err)
			}
			var kept slotOutputs
			var want []byte
			for tt := 0; tt < keep+3; tt++ {
				failAlloc.Store(tt == keep)
				act, st, acks, err := ct.RunSlot(tt, in.Workload.Arrivals(tt))
				if err != nil {
					t.Fatalf("slot %d: %v", tt, err)
				}
				if tt != keep {
					continue
				}
				kept = slotOutputs{Action: act, State: st, Acks: acks}
				if d := keeper.details[tt]; d != nil {
					kept.DetailState, kept.DetailAction, kept.Pre, kept.Post = d.State, d.Action, d.Pre, d.Post
					kept.Arrivals, kept.Routed, kept.ProcessedJob = d.Arrivals, d.Routed, d.Processed
				}
				want = mustJSON(t, kept)
				var lostProcessed float64
				for _, p := range acks[lost].Processed {
					lostProcessed += p
				}
				if lostProcessed == 0 {
					t.Fatal("the synthesized ack processed nothing; the test would compare zeros with zeros")
				}

				// The slot must have had something to overwrite, and the
				// masked agent's ack must be the whole zero ack.
				var processed float64
				for i, ack := range acks {
					if len(ack.Processed) != in.Cluster.J() || len(ack.DelaySum) != in.Cluster.J() || ack.Slot != tt {
						t.Fatalf("ack %d is malformed: %+v", i, ack)
					}
					for _, p := range ack.Processed {
						processed += p
					}
				}
				if processed == 0 {
					t.Fatal("slot processed nothing; the test would compare zeros with zeros")
				}
				zero := transport.AllocateAck{Slot: tt, Processed: make([]float64, in.Cluster.J()), DelaySum: make([]float64, in.Cluster.J())}
				if got, _ := json.Marshal(acks[down]); !bytes.Equal(got, mustJSON(t, zero)) {
					t.Errorf("masked agent's ack = %s, want the zero ack", got)
				}
			}
			if got := mustJSON(t, kept); !bytes.Equal(got, want) {
				t.Errorf("slot %d's outputs changed while later slots ran:\n got %s\nwant %s", keep, got, want)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
