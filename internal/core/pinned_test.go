package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"grefar/internal/model"
)

// decisionDigest drives a fresh scheduler for cfg through stateTestWorld's
// first slots on c and hashes every bit it produces: each slot's action
// (routes, processing, busy servers) and the state it would export after
// that slot (warm iterate and counters).
func decisionDigest(t *testing.T, c *model.Cluster, cfg Config, slots int) string {
	t.Helper()
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states, lengths := stateTestWorld(t, c, slots)
	h := sha256.New()
	put := func(u uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for s := range states {
		act, err := g.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		for i := range act.Route {
			for _, r := range act.Route[i] {
				put(uint64(r))
			}
			for _, p := range act.Process[i] {
				put(math.Float64bits(p))
			}
			for _, b := range act.Busy[i] {
				put(math.Float64bits(b))
			}
		}
		st := g.ExportState()
		for _, w := range st.Warm {
			put(math.Float64bits(w))
		}
		for _, n := range []int{st.WarmHits, st.WarmRepairs, st.WarmFallbacks} {
			put(uint64(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
