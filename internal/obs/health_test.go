package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestHealthzReadsDownGauges: /healthz reports "degraded" while any
// cyrus_csp_down gauge reads 1 and "ok" once every provider recovered.
func TestHealthzReadsDownGauges(t *testing.T) {
	o := NewObserver()
	status := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		o.HealthzHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var body healthzBody
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || rec.Code != 200 {
			t.Fatalf("/healthz code %d: %v", rec.Code, err)
		}
		return body.Status
	}
	if got := status(); got != "ok" {
		t.Fatalf("fresh observer: status %q, want ok", got)
	}
	o.CSPDownState("alpha", false)
	o.CSPDownState("beta", true)
	o.CSPDownState("gamma", true)
	if got := status(); got != "degraded" {
		t.Fatalf("beta and gamma down: status %q, want degraded", got)
	}
	o.CSPDownState("beta", false)
	if got := status(); got != "degraded" {
		t.Fatalf("gamma still down: status %q, want degraded", got)
	}
	o.CSPDownState("gamma", false)
	if got := status(); got != "ok" {
		t.Fatalf("all recovered: status %q, want ok", got)
	}
}
