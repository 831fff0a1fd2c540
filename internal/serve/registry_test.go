package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"testing"
)

// TestErrorCodeRegistry pins the code↔status contract the apienvelope
// analyzer enforces statically and the apisurface golden publishes:
// exactly eight stable codes, each mapped to its canonical status exactly
// once in either direction, and every one emitted through the same
// `{"error":{code,message}}` envelope.
func TestErrorCodeRegistry(t *testing.T) {
	want := map[string]int{
		codeInvalidRequest: http.StatusBadRequest,
		codeNotFound:       http.StatusNotFound,
		codeBusy:           http.StatusConflict,
		codeSessionClosed:  http.StatusGone,
		codeBodyTooLarge:   http.StatusRequestEntityTooLarge,
		codeSaturated:      http.StatusTooManyRequests,
		codeShuttingDown:   http.StatusServiceUnavailable,
		codeInternal:       http.StatusInternalServerError,
	}
	if len(codeStatus) != len(want) {
		t.Fatalf("registry has %d codes, want %d", len(codeStatus), len(want))
	}
	for code, status := range want {
		got, ok := codeStatus[code]
		if !ok {
			t.Errorf("code %q missing from the registry", code)
			continue
		}
		if got != status {
			t.Errorf("code %q maps to %d, want %d", code, got, status)
		}
	}
	// One status, one code: a shared status would make statusCodeOf's
	// inverse ambiguous for clients branching on the code.
	byStatus := map[int]string{}
	for code, status := range codeStatus {
		if prev, dup := byStatus[status]; dup {
			t.Errorf("codes %q and %q share status %d", prev, code, status)
		}
		byStatus[status] = code
	}

	// Every code round-trips through the envelope with its registered
	// status, the JSON content type, and both envelope fields populated.
	for code, status := range codeStatus {
		rec := httptest.NewRecorder()
		writeError(rec, status, code, "probe message")
		if rec.Code != status {
			t.Errorf("writeError(%q) wrote status %d, want %d", code, rec.Code, status)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("writeError(%q) Content-Type = %q", code, ct)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("writeError(%q) body %q is not the envelope: %v", code, rec.Body.String(), err)
			continue
		}
		if body.Error.Code != code || body.Error.Message != "probe message" {
			t.Errorf("writeError(%q) envelope = %+v", code, body)
		}
		retryAfter := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		if got := rec.Header().Get("Retry-After") != ""; got != retryAfter {
			t.Errorf("writeError(%q) Retry-After present = %v, want %v", code, got, retryAfter)
		}
	}
}

// TestSessionEngineDefaultsToOneWorker: a compass session created without
// workers gets one pool worker, not GOMAXPROCS, and an explicit count is
// kept.
func TestSessionEngineDefaultsToOneWorker(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4)) // so GOMAXPROCS and 1 differ
	mesh, configs, err := buildModel(&CreateRequest{Netgen: &NetgenSpec{Grid: 2, RateHz: 20, SynPerNeuron: 64, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, want int }{{0, 1}, {2, 2}} {
		eng, err := buildEngine("compass", tc.workers, mesh, configs)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.(interface{ Workers() int }).Workers(); got != tc.want {
			t.Errorf("workers %d: engine has %d pool workers, want %d", tc.workers, got, tc.want)
		}
		eng.(io.Closer).Close()
	}
}
