package serve

import (
	"net/http"
	"strconv"
	"sync"

	"tdfm/internal/core"
	"tdfm/internal/obs"
	"tdfm/internal/tensor"
)

// ModelInfo identifies the registry artifact a Server was built from
// (Options.Model): the version number and content digest reported by
// /healthz, stamped on swap events, and used to tag the retiring
// version's pool-stats snapshot. The zero value means "not
// registry-backed" (a server trained in-process) and is omitted from
// responses.
type ModelInfo struct {
	// Version is the registry version number (1-based; 0 when not
	// registry-backed).
	Version int
	// Digest is the artifact's "sha256:<hex>" content digest.
	Digest string
}

// Label renders the version as "v3", or "" for the zero ModelInfo.
func (m ModelInfo) Label() string {
	if m.Version <= 0 {
		return ""
	}
	return "v" + strconv.Itoa(m.Version)
}

// Hot is the atomic hot-swap front over a Server: requests route to the
// current model version, Swap installs a new version with zero dropped
// requests. The swap ordering contract (DESIGN.md §11):
//
//  1. The new generation is installed under the write lock — requests
//     arriving after the swap point route to the new Server.
//  2. The swapper waits for every request pinned to the old generation
//     (each holds a generation reference for its full duration, HTTP
//     decode included).
//  3. Only then is the old Server drained — so no in-flight request can
//     observe ErrDraining — and its pool-stats snapshot emitted, tagged
//     with the retiring version.
//  4. The old members' activation arenas are released, so their storage
//     is garbage, and the swap event is emitted. A swap event therefore
//     guarantees the old version is fully retired.
//
// Requests never block on a swap: between steps 1 and 4 old and new
// generations serve concurrently, each on its own breakers and
// admission queue. Methods are safe for concurrent use; Swap calls are
// serialized internally.
type Hot struct {
	mu     sync.RWMutex // guards gen; write-held only for the pointer swap
	gen    *generation
	swapMu sync.Mutex // serializes Swap/Drain retirement work
}

// generation pins one model version's Server and the requests in flight
// against it.
type generation struct {
	srv *Server
	wg  sync.WaitGroup
}

// NewHot wraps srv as the initial generation.
func NewHot(srv *Server) *Hot {
	return &Hot{gen: &generation{srv: srv}}
}

// acquire pins the current generation for one request. The returned
// generation's wg must be released (Done) when the request finishes.
func (h *Hot) acquire() *generation {
	h.mu.RLock()
	g := h.gen
	g.wg.Add(1)
	h.mu.RUnlock()
	return g
}

// Server returns the currently serving generation's Server (for
// inspection: options, breaker states, member names).
func (h *Hot) Server() *Server {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen.srv
}

// Predict answers one request against the current generation. A request
// admitted before a Swap completes against the generation it started
// on; the swap waits for it.
func (h *Hot) Predict(x *tensor.Tensor) (*Result, error) {
	g := h.acquire()
	defer g.wg.Done()
	return g.srv.Predict(x)
}

// Swap atomically installs next as the serving generation, then retires
// the old one: waits out its in-flight requests, drains it (emitting
// the retiring version's pool-stats snapshot), releases its activation
// arenas, and emits the swap event to next's sink. It returns when the
// old version is fully retired.
func (h *Hot) Swap(next *Server) {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.mu.Lock()
	old := h.gen
	h.gen = &generation{srv: next}
	h.mu.Unlock()

	old.wg.Wait() //tdfm:allow lockdiscipline swapMu is the swap-serialization lock, not a request-path lock: requests go through h.mu (released above), so waiting out the old generation here blocks only competing swaps, by design
	old.srv.Drain()
	old.srv.ReleaseArenas()

	oldM, newM := old.srv.opts.Model, next.opts.Model
	next.emit(obs.Event{
		Kind:   obs.KindSwap,
		Key:    newM.Label(),
		Detail: oldM.Label() + "→" + newM.Label() + " digest=" + newM.Digest,
	})
}

// Drain retires the current generation for shutdown: stops admission,
// waits out in-flight requests, and releases arenas. Requests arriving
// afterwards fail with ErrDraining.
//
// Like Swap, Drain first installs a fresh generation over the same
// Server, so late arrivals pin that one instead of the generation being
// waited on: the wait covers a fixed set of requests and returns under
// sustained load. Late arrivals reach the Server, whose own Drain
// refuses them or waits them out.
func (h *Hot) Drain() {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.mu.Lock()
	g := h.gen
	h.gen = &generation{srv: g.srv}
	h.mu.Unlock()
	g.wg.Wait() //tdfm:allow lockdiscipline swapMu only serializes Drain against concurrent Swap; requests go through h.mu (released above), so the wait cannot stall admission
	g.srv.Drain()
	g.srv.ReleaseArenas()
}

// Handler returns the hot-swapping HTTP API: the same routes as
// Server.Handler, with every request pinned to the generation that was
// current when it arrived. A Swap mid-request completes only after the
// request does.
func (h *Hot) Handler() http.Handler {
	return routes(func(w http.ResponseWriter, r *http.Request, handle route) {
		g := h.acquire()
		defer g.wg.Done()
		handle(g.srv, w, r)
	})
}

// ReleaseArenas drops the storage of every member's per-network
// activation arenas. Callers retire a drained Server with it, so the
// buffers a retired model version held are garbage even while the
// Server itself is still referenced.
func (s *Server) ReleaseArenas() {
	for _, m := range s.members {
		core.ReleaseArenas(m.Clf)
	}
}
