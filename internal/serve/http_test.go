package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tdfm/internal/chaos"
)

// newHTTPServer builds a five-member server with a 1×2×2 input shape
// (four floats per instance) on a fake clock.
func newHTTPServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = chaos.NewFake()
	}
	opts.Input = [3]int{1, 2, 2}
	s, err := New(fiveMembers(), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// handlers returns s's HTTP API both ways it is served: directly and
// through the hot-swap front. Every table below runs against each.
func handlers(s *Server) []http.Handler {
	return []http.Handler{s.Handler(), NewHot(s).Handler()}
}

// doJSON posts body to path and decodes the JSON reply into out.
func doJSON(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s reply %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

const twoInstances = `{"instances": [[0,0,0,0], [1,1,1,1]]}`

func TestHTTPPredictOK(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	for _, h := range handlers(newHTTPServer(t, Options{})) {
		var resp PredictResponse
		rec := doJSON(t, h, http.MethodPost, "/predict?probs=1", twoInstances, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
		}
		if len(resp.Predictions) != 2 || resp.Predictions[0] != 1 || resp.Predictions[1] != 1 {
			t.Fatalf("predictions = %v, want [1 1]", resp.Predictions)
		}
		if resp.Quorum != "5/5" {
			t.Fatalf("quorum = %q, want 5/5", resp.Quorum)
		}
		if len(resp.Members) != 5 || resp.Members[0].Name != "alpha" || resp.Members[0].Status != "ok" {
			t.Fatalf("members = %+v", resp.Members)
		}
		if len(resp.Probs) != 2 || resp.Probs[0][1] != 0.45 {
			t.Fatalf("probs = %v, want mean class-1 prob 0.45", resp.Probs)
		}
		// Without ?probs=1 the probs field is omitted.
		var bare map[string]any
		doJSON(t, h, http.MethodPost, "/predict", twoInstances, &bare)
		if _, ok := bare["probs"]; ok {
			t.Fatal("probs present without ?probs=1")
		}
	}
}

func TestHTTPPredictBadRequests(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	hs := handlers(newHTTPServer(t, Options{}))
	cases := []struct {
		name, method, body string
		want               int
	}{
		{"malformed json", http.MethodPost, `{"instances": [[0,0`, http.StatusBadRequest},
		{"wrong instance length", http.MethodPost, `{"instances": [[1,2,3]]}`, http.StatusBadRequest},
		{"empty batch", http.MethodPost, `{"instances": []}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
	}
	for _, h := range hs {
		for _, c := range cases {
			var resp ErrorResponse
			rec := doJSON(t, h, c.method, "/predict", c.body, &resp)
			if rec.Code != c.want {
				t.Fatalf("%s: status = %d, want %d (body %s)", c.name, rec.Code, c.want, rec.Body.String())
			}
			if resp.Error == "" {
				t.Fatalf("%s: empty error message", c.name)
			}
		}
	}
}

func TestHTTPPredictShedsWith429(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	clk := chaos.NewFake()
	s := newHTTPServer(t, Options{Clock: clk, QueueCapacity: 1, MemberDeadline: 100 * time.Millisecond})
	// Hold the only slot with a direct request whose members sleep on the
	// fake clock, then hit the API: it must shed immediately.
	chaos.Arm("serve/member", "", chaos.Action{Delay: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(batch())
		done <- err
	}()
	clk.BlockUntil(6)

	for _, h := range handlers(s) {
		rec := doJSON(t, h, http.MethodPost, "/predict", twoInstances, nil)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body.String())
		}
	}
	clk.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

func TestHTTPPredictQuorumFailureIs503(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	s := newHTTPServer(t, Options{})
	for _, pat := range []string{"/alpha", "/bravo", "/hangs", "/crash"} {
		chaos.Arm("serve/member", pat, chaos.Action{Err: chaos.ErrInjected})
	}
	for _, h := range handlers(s) {
		var resp ErrorResponse
		rec := doJSON(t, h, http.MethodPost, "/predict", twoInstances, &resp)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body.String())
		}
		if resp.Quorum != "1/5" {
			t.Fatalf("quorum = %q, want 1/5", resp.Quorum)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	s := newHTTPServer(t, Options{})
	hs := handlers(s)
	for _, h := range hs {
		var resp HealthResponse
		rec := doJSON(t, h, http.MethodGet, "/healthz", "", &resp)
		if rec.Code != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("healthz = %d %q", rec.Code, resp.Status)
		}
		if len(resp.Members) != 5 || resp.Members[2].Name != "hangs" || resp.Members[2].Breaker != "closed" {
			t.Fatalf("members = %+v", resp.Members)
		}
	}
	s.Drain()
	for _, h := range hs {
		resp := HealthResponse{}
		rec := doJSON(t, h, http.MethodGet, "/healthz", "", &resp)
		if rec.Code != http.StatusServiceUnavailable || resp.Status != "draining" {
			t.Fatalf("draining healthz = %d %q, want 503 draining", rec.Code, resp.Status)
		}
		// And the predict path refuses with 503 too.
		rec = doJSON(t, h, http.MethodPost, "/predict", twoInstances, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("predict during drain = %d, want 503", rec.Code)
		}
	}
}
