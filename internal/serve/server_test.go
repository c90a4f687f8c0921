package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grefar/internal/core"
	"grefar/internal/serve/snapshot"
)

func newTestServer(t *testing.T, store *snapshot.Store, every int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewSession(testConfig(t, core.Config{V: 7.5, Beta: 100}))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewServer(ServerConfig{Session: s, Store: store, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	return sv, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	data, _ := io.ReadAll(resp.Body)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("non-JSON response %q: %v", data, err)
		}
	}
	return resp.StatusCode, out
}

// TestAcceptedAckMatchesWriteJSON pins the ingest ack to the bytes the
// reflection-based encoder writes for {"accepted": n}: status, headers and
// body, byte for byte.
func TestAcceptedAckMatchesWriteJSON(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 1000, math.MaxInt} {
		body, err := json.Marshal(map[string]int{"accepted": n})
		if err != nil {
			t.Fatal(err)
		}
		want := append(body, '\n')
		got := httptest.NewRecorder()
		writeAccepted(got, n)
		if got.Code != http.StatusAccepted {
			t.Errorf("n=%d: status %d, want %d", n, got.Code, http.StatusAccepted)
		}
		if h := (http.Header{"Content-Type": {"application/json"}}); !reflect.DeepEqual(got.Header(), h) {
			t.Errorf("n=%d: headers %v, want %v", n, got.Header(), h)
		}
		if !bytes.Equal(got.Body.Bytes(), want) {
			t.Errorf("n=%d: body %q, want %q", n, got.Body.Bytes(), want)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	sv, ts := newTestServer(t, nil, 0)

	// Single object, array, and JSONL batch ingestion.
	code, out := postJSON(t, ts.URL+"/v1/jobs", `{"type":0,"count":3}`)
	if code != http.StatusAccepted || out["accepted"].(float64) != 3 {
		t.Fatalf("single job: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/v1/jobs", `[{"type":1,"count":2},{"type":2}]`)
	if code != http.StatusAccepted || out["accepted"].(float64) != 3 {
		t.Fatalf("array: %d %v", code, out)
	}
	code, out = postJSON(t, ts.URL+"/v1/jobs/batch", "{\"type\":3,\"count\":4}\n\n{\"type\":4}\n")
	if code != http.StatusAccepted || out["accepted"].(float64) != 5 {
		t.Fatalf("batch: %d %v", code, out)
	}

	// Rejections: unknown type, malformed JSON, unknown field.
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", `{"type":999}`); code != http.StatusBadRequest {
		t.Fatalf("unknown type accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/jobs", `{nope`); code != http.StatusBadRequest {
		t.Fatalf("malformed body accepted: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/jobs/batch", `{"type":0,"bogus":1}`+"\n"); code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", code)
	}

	// Tick five slots at once.
	code, out = postJSON(t, ts.URL+"/v1/tick?n=5", "")
	if code != http.StatusOK || out["slot"].(float64) != 4 {
		t.Fatalf("tick n=5: %d %v", code, out)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/tick?n=0", ""); code != http.StatusBadRequest {
		t.Fatalf("n=0 accepted: %d", code)
	}

	// Status reflects the served slots and ingested jobs.
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status statusBody
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Slot != 5 || status.Submitted != 11 || status.V != 7.5 || status.Beta != 100 {
		t.Fatalf("status: %+v", status)
	}

	// Hot reload V and beta at the slot boundary, then keep ticking.
	code, out = postJSON(t, ts.URL+"/v1/reconfigure", `{"v":20,"beta":0}`)
	if code != http.StatusOK || out["v"].(float64) != 20 {
		t.Fatalf("reconfigure: %d %v", code, out)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/reconfigure", `{"v":-3}`); code != http.StatusInternalServerError {
		t.Fatalf("invalid reconfigure status: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/reconfigure", `{"tariff":{"kind":"nope"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown tariff accepted: %d", code)
	}
	code, out = postJSON(t, ts.URL+"/v1/reconfigure", `{"tariff":{"kind":"quadratic","scale":500}}`)
	if code != http.StatusOK {
		t.Fatalf("quadratic tariff reconfigure: %d %v", code, out)
	}
	if code, _ = postJSON(t, ts.URL+"/v1/tick", ""); code != http.StatusOK {
		t.Fatalf("tick after reconfigure: %d", code)
	}

	// No store configured: checkpoint endpoint reports failure.
	if code, _ := postJSON(t, ts.URL+"/v1/checkpoint", ""); code != http.StatusInternalServerError {
		t.Fatalf("checkpoint without store: %d", code)
	}

	// Metrics exposition carries the serve families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		"grefar_serve_jobs_ingested_total 11",
		"grefar_serve_ticks_total 6",
		"grefar_serve_tick_seconds_count 6",
		"grefar_serve_slot 6",
	} {
		if !strings.Contains(string(metrics), fam) {
			t.Fatalf("metrics missing %q:\n%s", fam, metrics)
		}
	}
	_ = sv
}

func TestServerSnapshotCadenceAndRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := snapshot.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, store, 5)

	if code, _ := postJSON(t, ts.URL+"/v1/jobs", `{"type":0,"count":40}`); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	if code, _ := postJSON(t, ts.URL+"/v1/tick?n=12", ""); code != http.StatusOK {
		t.Fatal("tick failed")
	}
	// Cadence 5 over 12 ticks: snapshots at slots 5 and 10.
	res, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	payload5, err := os.ReadFile(store.PrevPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Decode(payload5); err != nil {
		t.Fatal(err)
	}

	// Boot a fresh server from the store: it must resume at slot 10.
	store2, err := snapshot.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sv2, _ := newTestServer(t, store2, 5)
	boot, err := sv2.RestoreOnBoot()
	if err != nil {
		t.Fatal(err)
	}
	if boot == nil || boot.Fallback || sv2.Session().Slot() != 10 {
		t.Fatalf("boot restore: %+v, slot %d", boot, sv2.Session().Slot())
	}

	// Crash consistency: truncate current.snap mid-write; the next boot
	// falls back to prev (slot 5) and surfaces ErrCorruptSnapshot.
	if err := os.WriteFile(store.CurrentPath(), res.Payload[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	sv3, _ := newTestServer(t, store2, 5)
	boot, err = sv3.RestoreOnBoot()
	if err != nil {
		t.Fatal(err)
	}
	if boot == nil || !boot.Fallback {
		t.Fatalf("expected fallback restore, got %+v", boot)
	}
	if !errors.Is(boot.CurrentErr, ErrCorruptSnapshot) {
		t.Fatalf("CurrentErr = %v, want ErrCorruptSnapshot", boot.CurrentErr)
	}
	if got := sv3.Session().Slot(); got != 5 {
		t.Fatalf("fallback restored slot %d, want 5", got)
	}

	// Empty store: not an error, session stays at slot 0.
	empty, err := snapshot.NewStore(filepath.Join(t.TempDir(), "none"))
	if err != nil {
		t.Fatal(err)
	}
	sv4, _ := newTestServer(t, empty, 0)
	boot, err = sv4.RestoreOnBoot()
	if err != nil || boot != nil {
		t.Fatalf("empty store boot: %v %+v", err, boot)
	}
	if sv4.Session().Slot() != 0 {
		t.Fatal("empty store moved the slot counter")
	}
}

func TestServerForcedCheckpoint(t *testing.T) {
	store, err := snapshot.NewStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, store, 0)
	if code, _ := postJSON(t, ts.URL+"/v1/tick?n=3", ""); code != http.StatusOK {
		t.Fatal("tick failed")
	}
	code, out := postJSON(t, ts.URL+"/v1/checkpoint", "")
	if code != http.StatusOK || out["slot"].(float64) != 3 {
		t.Fatalf("forced checkpoint: %d %v", code, out)
	}
	res, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) == 0 {
		t.Fatal("empty checkpoint payload")
	}
}
