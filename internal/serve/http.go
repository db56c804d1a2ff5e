package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tdfm/internal/tensor"
)

// PredictRequest is the JSON body of POST /predict: a batch of
// flattened samples, each of length channels*height*width in CHW order.
type PredictRequest struct {
	// Instances holds one flattened sample per entry.
	Instances [][]float64 `json:"instances"`
}

// PredictResponse is the JSON body of a successful POST /predict.
type PredictResponse struct {
	// Predictions is the majority-vote class per instance.
	Predictions []int `json:"predictions"`
	// Quorum reports the surviving member count as "k/n".
	Quorum string `json:"quorum"`
	// Members lists every ensemble member's fate for this request.
	Members []MemberReportJSON `json:"members"`
	// Probs is the mean class-probability row per instance, present
	// only when the request asked for it with ?probs=1.
	Probs [][]float64 `json:"probs,omitempty"`
}

// MemberReportJSON is the wire form of one member's fate.
type MemberReportJSON struct {
	// Name is the member name.
	Name string `json:"name"`
	// Status is ok|timeout|panic|error|open.
	Status string `json:"status"`
}

// ErrorResponse is the JSON body of every non-2xx handler reply.
type ErrorResponse struct {
	// Error describes the failure.
	Error string `json:"error"`
	// Quorum reports "k/n" on minimum-quorum failures, else "".
	Quorum string `json:"quorum,omitempty"`
}

// HealthResponse is the JSON body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" while serving and "draining" during shutdown.
	Status string `json:"status"`
	// Model identifies the served registry artifact; absent when the
	// server was trained in-process rather than loaded from a registry.
	Model *ModelHealthJSON `json:"model,omitempty"`
	// Quorum is "k/n": members currently dispatchable (breaker not open)
	// over the ensemble size.
	Quorum string `json:"quorum"`
	// Members maps nothing: breaker states are listed in member order so
	// the output is deterministic (no map iteration).
	Members []MemberHealthJSON `json:"members"`
}

// ModelHealthJSON is the served model's registry identity in /healthz.
type ModelHealthJSON struct {
	// Version is the registry version number.
	Version int `json:"version"`
	// Label is the display form ("v3").
	Label string `json:"label"`
	// Digest is the artifact's "sha256:<hex>" content digest.
	Digest string `json:"digest"`
}

// MemberHealthJSON is one member's breaker state in /healthz.
type MemberHealthJSON struct {
	// Name is the member name.
	Name string `json:"name"`
	// Breaker is closed|open|half-open.
	Breaker string `json:"breaker"`
}

// Handler returns the server's HTTP API:
//
//	POST /predict  {"instances": [[…CHW floats…], …]} → predictions + quorum
//	GET  /healthz  breaker states and drain status
//
// Error mapping: malformed input → 400, load shedding (ErrOverloaded) →
// 429, minimum-quorum failures and draining → 503.
func (s *Server) Handler() http.Handler {
	return routes(func(w http.ResponseWriter, r *http.Request, handle route) {
		handle(s, w, r)
	})
}

// route is one endpoint's handler, run against the Server a request is
// pinned to.
type route func(s *Server, w http.ResponseWriter, r *http.Request)

// routes is the API's one route table, shared by Server.Handler and
// Hot.Handler: pin resolves the Server a request runs against (and
// holds it for the request's duration) before calling handle.
func routes(pin func(w http.ResponseWriter, r *http.Request, handle route)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		pin(w, r, (*Server).handlePredict)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		pin(w, r, (*Server).handleHealth)
	})
	return mux
}

// handlePredict decodes the batch, runs the quorum vote, and encodes the
// outcome.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"), "")
		return
	}
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %v", err), "")
		return
	}
	x, err := s.toTensor(req.Instances)
	if err != nil {
		writeError(w, http.StatusBadRequest, err, "")
		return
	}
	res, err := s.Predict(x)
	if err != nil {
		status := http.StatusInternalServerError
		quorum := ""
		switch {
		case errors.Is(err, ErrOverloaded):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrDraining):
			status = http.StatusServiceUnavailable
		case errors.Is(err, ErrNoQuorum):
			status = http.StatusServiceUnavailable
			if qe := (*QuorumError)(nil); errors.As(err, &qe) {
				quorum = fmt.Sprintf("%d/%d", qe.Got, qe.Members)
			}
		}
		writeError(w, status, err, quorum)
		return
	}
	resp := PredictResponse{
		Predictions: res.Pred,
		Quorum:      fmt.Sprintf("%d/%d", res.Quorum, res.Members),
		Members:     make([]MemberReportJSON, len(res.Reports)),
	}
	for i, rep := range res.Reports {
		resp.Members[i] = MemberReportJSON{Name: rep.Name, Status: rep.Status.String()}
	}
	if r.URL.Query().Get("probs") == "1" {
		resp.Probs = make([][]float64, len(res.Pred))
		for i := range resp.Probs {
			resp.Probs[i] = res.Probs.Row(i)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth reports drain status, the served model's registry
// identity, the dispatchable quorum, and per-member breaker states.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if s.Draining() {
		resp.Status = "draining"
	}
	if m := s.opts.Model; m.Version > 0 {
		resp.Model = &ModelHealthJSON{Version: m.Version, Label: m.Label(), Digest: m.Digest}
	}
	states := s.BreakerStates()
	dispatchable := 0
	for i, m := range s.members {
		if states[i] != BreakerOpen {
			dispatchable++
		}
		resp.Members = append(resp.Members, MemberHealthJSON{Name: m.Name, Breaker: states[i].String()})
	}
	resp.Quorum = fmt.Sprintf("%d/%d", dispatchable, len(s.members))
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// toTensor validates the flattened instances against Options.Input and
// packs them into an [N, C, H, W] tensor.
func (s *Server) toTensor(instances [][]float64) (*tensor.Tensor, error) {
	c, h, wd := s.opts.Input[0], s.opts.Input[1], s.opts.Input[2]
	if c <= 0 || h <= 0 || wd <= 0 {
		return nil, fmt.Errorf("server has no input shape configured (Options.Input)")
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("no instances in request")
	}
	want := c * h * wd
	flat := make([]float64, 0, len(instances)*want)
	for i, inst := range instances {
		if len(inst) != want {
			return nil, fmt.Errorf("instance %d has %d values, want %d (channels %d × height %d × width %d)",
				i, len(inst), want, c, h, wd)
		}
		flat = append(flat, inst...)
	}
	return tensor.FromSlice(flat, len(instances), c, h, wd), nil
}

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError encodes a typed error reply.
func writeError(w http.ResponseWriter, status int, err error, quorum string) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Quorum: quorum})
}
