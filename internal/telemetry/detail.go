package telemetry

import (
	"grefar/internal/model"
	"grefar/internal/queue"
)

// SlotDetail is the full per-slot evidence an emitter can attach to a
// SlotEvent for verification consumers: the revealed state, the chosen
// action, and the queue snapshots around it. Aggregate observers (the
// Prometheus registry, the JSONL stream) ignore it; the invariant checker
// re-derives every SlotEvent summary field from it.
//
// Collecting a detail costs deep copies of the state, action, and queue
// snapshots, so emitters populate it only when the wired observer asks for
// it via the DetailObserver interface. The JSONL stream deliberately omits
// it (json:"-") to keep the event schema stable and the stream compact.
//
// A detail may be retained, but it is read-only: the queue snapshots are
// immutable once taken, and the simulator hands the same snapshot out as one
// slot's Post and the next slot's Pre.
type SlotDetail struct {
	// State is x(t): prices, availability, and base energy as revealed to
	// the scheduler at the beginning of the slot.
	State *model.State `json:"-"`
	// Action is z(t): the routing, processing, and busy-server decision.
	Action *model.Action `json:"-"`
	// Pre is the queue snapshot Theta(t) the decision was made against.
	Pre queue.Lengths `json:"-"`
	// Post is the queue snapshot after the action and arrivals were applied.
	// Zero-valued for OriginDecide events, which observe no queue update.
	Post queue.Lengths `json:"-"`
	// Arrivals are the admitted arrival counts a_j(t) (OriginSim only).
	Arrivals []int `json:"-"`
	// Routed[i][j] and Processed[i][j] are the jobs that actually moved,
	// after capping at queue content (OriginSim only).
	Routed, Processed [][]float64 `json:"-"`
}

// DetailObserver is implemented by slot observers that need the full
// SlotDetail evidence (the invariant checker, the golden-trace recorder).
// Emitters call WantsDetail on their wired observer once and skip the
// collection cost entirely when it reports false.
type DetailObserver interface {
	SlotObserver
	// WantsSlotDetail reports whether ObserveSlot expects SlotEvent.Detail
	// to be populated.
	WantsSlotDetail() bool
}

// WantsDetail reports whether the observer (possibly a MultiObserver
// composite) asks for SlotEvent.Detail. A nil observer wants nothing.
func WantsDetail(o SlotObserver) bool {
	d, ok := o.(DetailObserver)
	return ok && d.WantsSlotDetail()
}

// WantsSlotDetail implements DetailObserver: a composite wants detail as
// soon as any member does.
func (m MultiObserver) WantsSlotDetail() bool {
	for _, o := range m {
		if WantsDetail(o) {
			return true
		}
	}
	return false
}
