package resthttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/obs"
)

// TestObservabilityEndpoints is the acceptance path for the observability
// layer: a core client (sharing one Observer with a provider's HTTP server)
// does a Put/Get; curling the server's /metrics then returns Prometheus
// text including per-op duration histograms and per-CSP request counters.
func TestObservabilityEndpoints(t *testing.T) {
	o := obs.NewObserver()

	var stores []csp.Store
	var metricsURL, healthzURL, pprofURL string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("obscsp%d", i+1)
		b := cloudsim.NewBackend(name, csp.NameKeyed, 0)
		srv, err := NewServer(b, "secret", false)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetObserver(o)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		if i == 0 {
			metricsURL = ts.URL + "/metrics"
			healthzURL = ts.URL + "/healthz"
			pprofURL = ts.URL + "/debug/pprof/"
		}
		s := NewStore(name, ts.URL, nil)
		if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}

	client, err := core.New(core.Config{
		ClientID: "obs-client", Key: "wire-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 4096, MinSize: 1024, MaxSize: 16384},
		Obs:      o,
	}, stores)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("observed payload "), 1000)
	if err := client.Put(bg, "watched.txt", data); err != nil {
		t.Fatal(err)
	}
	if got, _, err := client.Get(bg, "watched.txt"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}

	// A batch fetch is filed under its own route label, not under "other".
	if _, err := stores[0].(*Store).DownloadBatch(bg, []string{"absent"}); err != nil {
		t.Fatal(err)
	}

	// /metrics — no bearer token, Prometheus text format.
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`cyrus_op_duration_seconds_bucket{op="put",le=`,
		`cyrus_op_duration_seconds_bucket{op="get",le=`,
		`cyrus_csp_requests_total{csp="obscsp1",result="ok"}`,
		`cyrus_ops_total{op="put",result="ok"} 1`,
		`cyrus_events_total`,
		`cyrus_transfer_bytes_total`,
		`cyrus_http_requests_total{method="POST",route="/v1/batch",code="200"} 1`,
		`cyrus_http_request_duration_seconds_count{route="/v1/batch"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz — 200 JSON with all providers healthy.
	resp, err = http.Get(healthzURL)
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string          `json:"status"`
		CSPs   []obs.CSPHealth `json:"csps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status=%d err=%v", resp.StatusCode, err)
	}
	if hz.Status != "ok" || len(hz.CSPs) != 3 {
		t.Errorf("/healthz = %+v, want ok with 3 csps", hz)
	}

	// /debug/pprof/ index responds.
	resp, err = http.Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}

	// /debug/flightrecorder — GET returns the recorder state with the ops
	// above in the event ring; POST forces a manual dump.
	flightURL := strings.TrimSuffix(metricsURL, "/metrics") + "/debug/flightrecorder"
	resp, err = http.Get(flightURL)
	if err != nil {
		t.Fatal(err)
	}
	var fb struct {
		Dumps  []obs.FlightDump  `json:"dumps"`
		Events []obs.FlightEvent `json:"events"`
		Load   []obs.CSPLoad     `json:"load"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fb)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status=%d err=%v", resp.StatusCode, err)
	}
	if len(fb.Events) == 0 {
		t.Error("/debug/flightrecorder carries no events after put/get")
	}
	if len(fb.Load) == 0 {
		t.Error("/debug/flightrecorder carries no load telemetry after put/get")
	}
	resp, err = http.Post(flightURL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/flightrecorder status=%d err=%v", resp.StatusCode, err)
	}
	if dump.Seq == 0 || len(dump.Events) == 0 || !strings.HasPrefix(dump.Reason, obs.TriggerManual) {
		t.Errorf("forced dump = seq %d, %d events, reason %q; want populated manual dump",
			dump.Seq, len(dump.Events), dump.Reason)
	}
}

// TestPprofCmdlineNotServed: the unauthenticated pprof routes must never
// include cmdline — the process argv can carry the bearer token (cyruscsp
// -token), and serving it would hand the token to any client.
func TestPprofCmdlineNotServed(t *testing.T) {
	b := cloudsim.NewBackend("sealed", csp.NameKeyed, 0)
	srv, err := NewServer(b, "secret", false)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetObserver(obs.NewObserver())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline served 200 with body %q; must not expose argv", body)
	}
	if strings.Contains(string(body), "secret") {
		t.Fatalf("/debug/pprof/cmdline body leaks the token: %q", body)
	}
}

// TestRouteLabelBounded: unmatched paths — which unauthenticated clients
// can invent without limit — must collapse to one label value so metric
// cardinality stays bounded, and known patterns stay distinct.
func TestRouteLabelBounded(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/auth":               "/v1/auth",
		"/v1/objects":            "/v1/objects",
		"/v1/objects/a%2Fb":      "/v1/objects/{name}",
		"/v1/batch":              "/v1/batch",
		"/v1/batch/x":            "other",
		"/metrics":               "/metrics",
		"/healthz":               "/healthz",
		"/debug/spans":           "/debug/spans",
		"/debug/flightrecorder":  "/debug/flightrecorder",
		"/debug/pprof/heap":      "/debug/pprof/",
		"/admin/available":       "/admin/available",
		"/admin/fail":            "/admin/fail",
		"/":                      "other",
		"/nope":                  "other",
		"/admin/whatever":        "other",
		"/v1/other":              "other",
		"/scan-" + "\x1f" + "42": "other", // labelSep must never reach a key
	} {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestNoObserverNoEndpoints: without SetObserver the observability routes
// stay unmounted.
func TestNoObserverNoEndpoints(t *testing.T) {
	b := cloudsim.NewBackend("plain", csp.NameKeyed, 0)
	srv, err := NewServer(b, "secret", false)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without observer = %d, want 404", resp.StatusCode)
	}
}
