package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"
)

// DebugServer serves a daemon's observability state over HTTP:
//
//	/metrics      JSON Snapshot of the metrics registry
//	/metrics.prom the same registry in Prometheus text exposition format
//	/healthz      "ok" while no alert rule fires; 503 with a JSON body
//	              naming the firing rules otherwise
//	/vitals       JSON Vitals: windowed rates/percentiles from the
//	              daemon's own time series plus alert state;
//	              ?window=30s tunes the lookback
//	/spans        JSON []Span from the span ring, events included;
//	              ?trace=ID filters by trace ID, ?slow=1 reads the slow-op
//	              flight recorder instead, ?n=N keeps only the newest N
//	/debug/pprof  the standard Go profiling endpoints
type DebugServer struct {
	l   net.Listener
	srv *http.Server
}

// ServeDebug starts a debug server for o on addr (e.g. "127.0.0.1:0").
func ServeDebug(addr string, o *Obs) (*DebugServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, o.Reg.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = WritePrometheus(w, o.Reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		firing := o.FiringAlerts()
		if len(firing) == 0 {
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprintln(w, "ok")
			return
		}
		id := o.Identity()
		body := healthzBody{Status: "unhealthy", Node: id.Node, Epoch: id.Epoch, Firing: firing}
		if id.NShards > 0 {
			body.Shard = fmt.Sprintf("%d/%d", id.Shard, id.NShards)
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
	})
	mux.HandleFunc("/vitals", func(w http.ResponseWriter, req *http.Request) {
		window := DefaultVitalsWindow
		if ws := req.URL.Query().Get("window"); ws != "" {
			if d, err := time.ParseDuration(ws); err == nil && d > 0 {
				window = d
			}
		}
		writeJSON(w, http.StatusOK, o.Vitals(window))
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		ring := o.Spans
		if q.Get("slow") != "" && q.Get("slow") != "0" {
			ring = o.Slow
		}
		var spans []Span
		if id := q.Get("trace"); id != "" {
			spans = ring.ByTrace(id)
		} else {
			spans = ring.Spans()
		}
		if ns := q.Get("n"); ns != "" {
			if n, err := strconv.Atoi(ns); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		writeJSON(w, http.StatusOK, spans)
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, _ *http.Request) {
		list := o.Incidents().List()
		if list == nil {
			list = []IncidentMeta{}
		}
		writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("/incidents/capture", func(w http.ResponseWriter, req *http.Request) {
		ir := o.Incidents()
		if ir == nil {
			http.Error(w, "no incident recorder configured (-incident-dir)", http.StatusNotImplemented)
			return
		}
		q := req.URL.Query()
		reason := q.Get("reason")
		if reason == "" {
			reason = "manual"
		}
		force := q.Get("force") != "" && q.Get("force") != "0"
		meta, fresh, err := ir.Capture(reason, force)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, captureResult{Captured: fresh, Incident: meta})
	})
	mux.HandleFunc("/incidents/bundle", func(w http.ResponseWriter, req *http.Request) {
		ir := o.Incidents()
		if ir == nil {
			http.Error(w, "no incident recorder configured (-incident-dir)", http.StatusNotImplemented)
			return
		}
		id := req.URL.Query().Get("id")
		// Buffer the archive so a missing bundle can still 404: bundles are
		// bounded (profiles + JSON rings), not bulk data.
		var buf bytes.Buffer
		if err := ir.WriteTar(&buf, id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/gzip")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ds := &DebugServer{l: l, srv: &http.Server{Handler: mux}}
	go ds.srv.Serve(l)
	return ds, nil
}

// Addr returns the listening address (useful with ":0").
func (ds *DebugServer) Addr() string {
	if ds == nil {
		return ""
	}
	return ds.l.Addr().String()
}

// Close stops the server.
func (ds *DebugServer) Close() error {
	if ds == nil {
		return nil
	}
	return ds.srv.Close()
}

// writeJSON answers with v as indented JSON under status. The header goes
// out before WriteHeader: an unhealthy /healthz is a 503 with a body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// DefaultVitalsWindow is the /vitals lookback when the scrape names none.
const DefaultVitalsWindow = 30 * time.Second

// healthzBody is the JSON payload of an unhealthy /healthz response. Node,
// Shard ("i/n", present only on sharded daemons) and Epoch name which
// keyspace is degraded, so a 503 from a sharded fleet is actionable on
// its own.
type healthzBody struct {
	Status string  `json:"status"`
	Node   string  `json:"node,omitempty"`
	Shard  string  `json:"shard,omitempty"`
	Epoch  int64   `json:"epoch,omitempty"`
	Firing []Alert `json:"firing"`
}

// scrapeClient bounds debug-endpoint scrapes so a wedged daemon cannot
// hang an nvmctl invocation.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// getJSON GETs http://addr/path[?q] and decodes the JSON body into v; any
// status but 200 is an error.
func getJSON(addr, path string, q url.Values, v any) error {
	u := url.URL{Scheme: "http", Host: addr, Path: path, RawQuery: q.Encode()}
	resp, err := scrapeClient.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// FetchMetrics scrapes one node's /metrics endpoint. addr is a host:port
// debug address (no scheme).
func FetchMetrics(addr string) (Snapshot, error) {
	var s Snapshot
	err := getJSON(addr, "/metrics", nil, &s)
	return s, err
}

// FetchVitals scrapes one node's /vitals endpoint with the given
// lookback window (0 keeps the server default).
func FetchVitals(addr string, window time.Duration) (Vitals, error) {
	q := url.Values{}
	if window > 0 {
		q.Set("window", window.String())
	}
	var v Vitals
	err := getJSON(addr, "/vitals", q, &v)
	return v, err
}

// FetchHealth probes one node's /healthz: healthy (200) or unhealthy
// (503, firing names the rules). Any other status is an error.
func FetchHealth(addr string) (healthy bool, firing []Alert, err error) {
	resp, err := scrapeClient.Get("http://" + addr + "/healthz")
	if err != nil {
		return false, nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil, nil
	case http.StatusServiceUnavailable:
		var body healthzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return false, nil, err
		}
		return false, body.Firing, nil
	default:
		return false, nil, fmt.Errorf("obs: %s/healthz: %s", addr, resp.Status)
	}
}

// FetchSpans scrapes one node's /spans endpoint, events included. trace
// filters by trace ID when non-empty; slow reads the flight recorder
// instead of the span ring; n limits to the newest n entries when positive.
func FetchSpans(addr, trace string, slow bool, n int) ([]Span, error) {
	q := url.Values{}
	if trace != "" {
		q.Set("trace", trace)
	}
	if slow {
		q.Set("slow", "1")
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var spans []Span
	err := getJSON(addr, "/spans", q, &spans)
	return spans, err
}

// captureResult is the /incidents/capture response: Captured=false means
// the cooldown handed back an existing bundle instead of writing a new
// one.
type captureResult struct {
	Captured bool         `json:"captured"`
	Incident IncidentMeta `json:"incident"`
}

// FetchIncidents scrapes one node's /incidents list (newest first).
func FetchIncidents(addr string) ([]IncidentMeta, error) {
	var list []IncidentMeta
	err := getJSON(addr, "/incidents", nil, &list)
	return list, err
}

// CaptureIncident asks one node to capture a bundle now. captured=false
// with a nil error means the node's cooldown returned an existing bundle
// (force skips the cooldown).
func CaptureIncident(addr, reason string, force bool) (meta IncidentMeta, captured bool, err error) {
	q := url.Values{"reason": {reason}}
	if force {
		q.Set("force", "1")
	}
	var res captureResult
	err = getJSON(addr, "/incidents/capture", q, &res)
	return res.Incident, res.Captured, err
}

// FetchIncidentBundle streams one node's bundle id as tar.gz into w.
// Bundle fetches get a longer deadline than metric scrapes: profiles are
// bigger than gauges.
var bundleClient = &http.Client{Timeout: 60 * time.Second}

func FetchIncidentBundle(addr, id string, w io.Writer) error {
	resp, err := bundleClient.Get("http://" + addr + "/incidents/bundle?id=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs: %s/incidents/bundle?id=%s: %s", addr, id, resp.Status)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
