package ops

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ldv/internal/obs"
)

func TestIndexPage(t *testing.T) {
	h := Handler(testRegistry(t))
	code, body, ctype := get(t, h, "/")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{"/metrics", "/traces", "/statements", "/ash", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %s:\n%s", want, body)
		}
	}
	// Replication routes appear only when mounted.
	if strings.Contains(body, "/replication") {
		t.Error("index lists /replication without the option")
	}
	if _, body, _ := get(t, Handler(testRegistry(t), WithReplication(&fakeRepl{})), "/"); !strings.Contains(body, "/replication/promote") {
		t.Error("index missing /replication/promote with replication mounted")
	}
}

// TestUnknownRoute: the "/" pattern catches everything unregistered; those
// paths must 404, not serve the index.
func TestUnknownRoute(t *testing.T) {
	h := Handler(testRegistry(t))
	for _, path := range []string{"/nope", "/metrics/extra", "/ash/sub"} {
		if code, _, _ := get(t, h, path); code != http.StatusNotFound {
			t.Errorf("GET %s code = %d, want 404", path, code)
		}
	}
}

func TestASHEndpointBadParams(t *testing.T) {
	h := Handler(testRegistry(t))
	for _, path := range []string{
		"/ash?limit=oops", "/ash?limit=-1",
		"/ash?buckets=0", "/ash?buckets=oops", "/ash?buckets=100000",
		"/ash?format=bogus",
	} {
		if code, _, _ := get(t, h, path); code != http.StatusBadRequest {
			t.Errorf("GET %s code = %d, want 400", path, code)
		}
	}
}

func TestASHEndpointEmpty(t *testing.T) {
	obs.Reset()
	h := Handler(testRegistry(t))
	code, body, ctype := get(t, h, "/ash")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	// The top-waits table renders the full taxonomy even with no samples.
	for _, want := range []string{"EVENT", "lock.table", "wal.group_commit", "no ASH samples"} {
		if !strings.Contains(body, want) {
			t.Errorf("empty /ash missing %q:\n%s", want, body)
		}
	}
}

func TestASHEndpoint(t *testing.T) {
	obs.Reset()
	obs.ASH().SetEnabled(true)
	obs.ASH().SetRate(2000)
	defer obs.ASH().SetRate(obs.DefaultASHRate)

	// A session parked in a lock wait long enough for the background sampler
	// (started by RegisterSession) to catch it repeatedly.
	st := obs.RegisterSession(9301, "opstest")
	defer obs.UnregisterSession(9301)
	st.StartStatement(&obs.StmtInfo{Fingerprint: "fp-ops"}, "trace-ops", time.Now())
	end := obs.WaitBegin(st, obs.WaitLockTable)
	deadline := time.Now().Add(2 * time.Second)
	for obs.ASH().Len() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	end()
	st.FinishStatement()
	if obs.ASH().Len() < 5 {
		t.Fatal("background sampler recorded no samples")
	}

	h := Handler(testRegistry(t))
	code, body, _ := get(t, h, "/ash")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	for _, want := range []string{"lock.table", "ASH", "buckets, oldest left"} {
		if !strings.Contains(body, want) {
			t.Errorf("/ash missing %q:\n%s", want, body)
		}
	}

	code, body, ctype := get(t, h, "/ash?format=json&limit=3&buckets=10")
	if code != http.StatusOK {
		t.Fatalf("json code = %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("json content type = %q", ctype)
	}
	var doc struct {
		Events  []obs.WaitEventStat `json:"events"`
		Samples []obs.ASHSample     `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("json decode: %v\n%s", err, body)
	}
	if len(doc.Events) != len(obs.WaitEvents()) {
		t.Errorf("events = %d, want %d", len(doc.Events), len(obs.WaitEvents()))
	}
	if len(doc.Samples) != 3 {
		t.Errorf("limited samples = %d, want 3", len(doc.Samples))
	}
	for _, s := range doc.Samples {
		if s.Session != 9301 || s.Proc != "opstest" {
			t.Errorf("sample = %+v", s)
		}
	}
}
