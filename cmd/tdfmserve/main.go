// Command tdfmserve serves TDFM predictions over a resilient HTTP JSON
// API: per-member deadlines, circuit breakers, degraded quorum voting,
// bounded admission with load shedding, and atomic model hot-swap (see
// internal/serve and DESIGN.md §8, §11).
//
// The model comes from one of two places:
//
//   - Training mode (default): train a technique at startup.
//
//     tdfmserve -addr :8089 -dataset gtsrblike -technique ens \
//     [-arch convnet] [-scale tiny] [-seed 1] [-epochs E]
//
//   - Registry mode: load a version published by `trainmodel -publish`
//     from a model registry directory (internal/registry). The artifact
//     is digest-verified before serving; nothing is trained at boot.
//
//     tdfmserve -addr :8089 -model ./registry [-model-version 3] \
//     [-watch] [-watch-interval 2s]
//
// With -watch the server polls the registry and atomically hot-swaps to
// each newly published version: requests in flight finish against the
// generation they started on, new requests route to the new model, and
// no request is ever dropped or shed by a swap.
//
// Registry mode has two sharding roles:
//
//   - `-member i` serves only member i of the artifact — a
//     single-member shard, used as the child process of a sharded
//     deployment.
//   - `-shard` runs every artifact member as a separate supervised
//     `tdfmserve -member` child process: the parent fans votes out over
//     HTTP, health-checks each child, and restarts crashed or unhealthy
//     children with exponential backoff. A dead child degrades the
//     quorum through the ordinary breaker machinery; the service keeps
//     answering while the supervisor restores full strength.
//
// Serving flags (all modes): [-member-deadline 2s] [-min-quorum 0]
// [-queue 64] [-breaker-threshold 3] [-breaker-cooldown 10s]
// [-workers W]
//
// Every request is dispatched on its own: one fan-out over the members
// per request, however many rows it carries (DESIGN.md §9). Inference
// runs in float64, the precision the model was trained in; each member's
// forward pass recycles dead activations as it goes, so a member holds
// its largest layer's working set rather than every activation of the
// pass (DESIGN.md §10).
//
// The API:
//
//	POST /predict  {"instances": [[…C*H*W floats…], …]}
//	               → {"predictions": […], "quorum": "k/n", "members": […]}
//	GET  /healthz  → drain status, per-member breaker states, active
//	               model version + digest, and current quorum k/n
//
// SIGINT or SIGTERM drains cooperatively: admission stops (new requests
// get 503), in-flight requests finish, supervised children are
// terminated, then the listener shuts down.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/datagen"
	"tdfm/internal/metrics"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/registry"
	"tdfm/internal/serve"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "tdfmserve:", err)
		os.Exit(1)
	}
}

// run builds the configured model source (training, registry, or shard
// supervision) and serves until SIGINT/SIGTERM or a listener error.
// When ready is non-nil it receives the bound address once the server
// is listening (tests use it with "-addr 127.0.0.1:0").
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("tdfmserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8089", "HTTP listen address")
		dataset     = fs.String("dataset", "gtsrblike", "dataset: cifar10like|gtsrblike|pneumonialike (training mode)")
		scaleStr    = fs.String("scale", "tiny", "dataset scale: tiny|small|medium (training mode)")
		seed        = fs.Uint64("seed", 1, "random seed (training mode)")
		tech        = fs.String("technique", "ens", "TDFM technique to train and serve: base|ls|lc|rl|kd|ens (training mode)")
		arch        = fs.String("arch", "convnet", "architecture for single-model techniques (training mode)")
		epochs      = fs.Int("epochs", 0, "training epochs (0 = architecture default; training mode)")
		workersN    = fs.Int("workers", 0, "worker pool size for training and tensor kernels (0 = GOMAXPROCS)")
		deadline    = fs.Duration("member-deadline", 2*time.Second, "per-member prediction deadline")
		minQuorum   = fs.Int("min-quorum", 0, "fewest surviving members for a vote (0 = strict majority)")
		queue       = fs.Int("queue", 64, "admission queue capacity; overflow is shed with 429")
		brThreshold = fs.Int("breaker-threshold", 3, "consecutive member failures that open its breaker")
		brCooldown  = fs.Duration("breaker-cooldown", 10*time.Second, "open-breaker wait before a half-open probe")
		modelDir    = fs.String("model", "", "model registry directory: serve a published artifact instead of training at boot")
		modelVer    = fs.Int("model-version", 0, "registry version to serve (0 = latest; requires -model)")
		watch       = fs.Bool("watch", false, "poll the registry and hot-swap to newly published versions (requires -model)")
		watchInt    = fs.Duration("watch-interval", 2*time.Second, "registry poll interval for -watch")
		memberIdx   = fs.Int("member", -1, "serve only this artifact member as a single-member shard (requires -model)")
		shard       = fs.Bool("shard", false, "run each artifact member as a supervised child process (requires -model)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelDir == "" && (*watch || *shard || *memberIdx >= 0) {
		return fmt.Errorf("-watch, -shard, and -member require -model <registry-dir>")
	}
	if *shard && *memberIdx >= 0 {
		return fmt.Errorf("-shard and -member are mutually exclusive (the parent shards, the child is a member)")
	}
	if *shard && *watch {
		return fmt.Errorf("-watch is not supported with -shard: children are pinned to the version the parent spawned them with")
	}
	scale, err := parseScale(*scaleStr)
	if err != nil {
		return err
	}
	if *workersN < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workersN)
	}
	workers := *workersN
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallel.SetBudget(workers)
	tensor.SetParallelism(workers)

	clock := chaos.Wall()
	opts := serve.Options{
		MemberDeadline:   *deadline,
		MinQuorum:        *minQuorum,
		QueueCapacity:    *queue,
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		Clock:            clock,
		Sink:             logSink{},
	}

	// stopAux ends the auxiliary goroutines — the registry watcher and
	// the member supervisors (which SIGTERM their children on the way
	// out); aux waits them out so shutdown never orphans a child.
	stopAux := make(chan struct{})
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stopAux) }) }
	var aux sync.WaitGroup
	defer func() { stopAll(); aux.Wait() }()

	var hot *serve.Hot
	switch {
	case *shard:
		srv, man, sups, err := buildShard(*modelDir, *modelVer, opts, clock)
		if err != nil {
			return err
		}
		fmt.Printf("model %s %s (%d member shards, %d classes)\n",
			man.Label(), man.Digest, len(man.Members), man.Classes)
		hot = serve.NewHot(srv)
		for _, sup := range sups {
			sup := sup
			aux.Add(1)
			go func() { //tdfm:allow nodeterminism supervisors run for the process lifetime and stop via stopAux; restart scheduling never reaches a vote
				defer aux.Done()
				sup.Run(stopAux)
			}()
		}
	case *modelDir != "":
		srv, man, err := openServer(*modelDir, *modelVer, *memberIdx, opts)
		if err != nil {
			return err
		}
		fmt.Printf("model %s %s (%d members, %d classes)\n",
			man.Label(), man.Digest, len(man.Members), man.Classes)
		hot = serve.NewHot(srv)
		if *watch {
			aux.Add(1)
			go func() { //tdfm:allow nodeterminism the registry watcher polls on the injected clock and stops via stopAux; swap ordering is serialized by Hot
				defer aux.Done()
				watchLoop(hot, *modelDir, man.Version, *memberIdx, opts, clock, *watchInt, stopAux)
			}()
		}
	default:
		srv, err := buildServer(*dataset, scale, *seed, *tech, *arch, *epochs, opts)
		if err != nil {
			return err
		}
		hot = serve.NewHot(srv)
	}

	// Install signal handling before the listener is announced so a test
	// (or an impatient operator) cannot signal into a gap.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: hot.Handler()}
	srv := hot.Server()
	fmt.Printf("serving on http://%s (quorum floor %d/%d, deadline %s)\n",
		ln.Addr(), srv.Options().MinQuorum, len(srv.MemberNames()), srv.Options().MemberDeadline)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }() //tdfm:allow nodeterminism the listener loop must run beside the signal select; request ordering is the client's

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tdfmserve: %v — draining, waiting for in-flight requests\n", s)
		stopAll()
		aux.Wait() // supervisors SIGTERM their children before Drain retires the generation
		hot.Drain()
		// Buffer-pool counters at shutdown: how much predict-path
		// allocation the pool absorbed over the process lifetime.
		fmt.Fprintf(os.Stderr, "tdfmserve: %s\n", tensor.Stats())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(ctx)
	}
}

// openServer loads and verifies a registry version (0 = latest) and
// wraps it in the serving layer.
func openServer(dir string, version, memberIdx int, opts serve.Options) (*serve.Server, registry.Manifest, error) {
	clf, man, err := registry.Open(dir, version)
	if err != nil {
		return nil, registry.Manifest{}, err
	}
	srv, err := serverFromManifest(clf, man, memberIdx, opts)
	return srv, man, err
}

// serverFromManifest builds the serving layer around a classifier
// opened from the registry: member names, input shape, class count, and
// the model identity reported by /healthz all come from the manifest.
// memberIdx ≥ 0 narrows the server to that one member (a shard child).
func serverFromManifest(clf core.Classifier, man registry.Manifest, memberIdx int, opts serve.Options) (*serve.Server, error) {
	members := serve.Split(clf, man.Members)
	if memberIdx >= 0 {
		if memberIdx >= len(members) {
			return nil, fmt.Errorf("-member %d out of range: %s has %d members", memberIdx, man.Label(), len(members))
		}
		members = members[memberIdx : memberIdx+1]
	}
	opts.Input = man.Input
	opts.Model = serve.ModelInfo{Version: man.Version, Digest: man.Digest}
	return serve.New(members, man.Classes, opts)
}

// watchLoop polls the registry and atomically hot-swaps each newly
// published version in. A version that fails to open or construct (a
// corrupt artifact, an interrupted publish) is logged and skipped: the
// serving generation is never replaced by anything that did not fully
// verify.
func watchLoop(hot *serve.Hot, dir string, after, memberIdx int, opts serve.Options,
	clock chaos.Clock, interval time.Duration, stop <-chan struct{}) {
	for man := range registry.Watch(dir, after, clock, interval, stop) {
		clf, man, err := registry.Open(dir, man.Version)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdfmserve: skipping %s: %v\n", man.Label(), err)
			continue
		}
		next, err := serverFromManifest(clf, man, memberIdx, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdfmserve: skipping %s: %v\n", man.Label(), err)
			continue
		}
		hot.Swap(next)
	}
}

// buildShard builds the parent of a sharded deployment: one
// RemoteMember per artifact member, each backed by a supervised
// `tdfmserve -member i` child process. The parent never deserializes
// the model — children load (and digest-verify) the artifact
// themselves, pinned to the parent's version.
func buildShard(dir string, version int, opts serve.Options,
	clock chaos.Clock) (*serve.Server, registry.Manifest, []*serve.Supervisor, error) {
	man, err := findManifest(dir, version)
	if err != nil {
		return nil, man, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, man, nil, fmt.Errorf("resolving member binary: %w", err)
	}
	members := make([]serve.Member, len(man.Members))
	sups := make([]*serve.Supervisor, len(man.Members))
	for i, name := range man.Members {
		rm := serve.NewRemoteMember(name, "", man.Input)
		proc := &execMember{name: name, exe: exe, args: []string{
			"-member", strconv.Itoa(i),
			"-model", dir,
			"-model-version", strconv.Itoa(man.Version),
			"-addr", "127.0.0.1:0",
		}}
		members[i] = serve.Member{Name: name, Clf: rm}
		sups[i] = serve.NewSupervisor(name, proc, rm, serve.SupervisorOptions{Clock: clock, Sink: opts.Sink})
	}
	opts.Input = man.Input
	opts.Model = serve.ModelInfo{Version: man.Version, Digest: man.Digest}
	srv, err := serve.New(members, man.Classes, opts)
	return srv, man, sups, err
}

// findManifest resolves a version number (0 = latest) to its manifest
// record without opening the artifact.
func findManifest(dir string, version int) (registry.Manifest, error) {
	if version > 0 {
		return registry.Find(dir, version)
	}
	man, ok, err := registry.Latest(dir)
	if err != nil {
		return man, err
	}
	if !ok {
		return man, fmt.Errorf("registry %s is empty: %w", dir, registry.ErrNotFound)
	}
	return man, nil
}

// execMember runs one `tdfmserve -member` child process, implementing
// serve.MemberProcess. Readiness is the child's own announcement:
// Start returns once the child prints its "serving on http://…" line,
// carrying the ephemeral port the parent must dial.
type execMember struct {
	name string
	exe  string
	args []string

	mu  sync.Mutex
	cmd *exec.Cmd
}

// spawnTimeout bounds how long Start waits for a child to announce its
// address before declaring the spawn failed.
const spawnTimeout = 2 * time.Minute

// Start implements serve.MemberProcess: spawn the child, forward its
// stdout/stderr, and wait for its serving address.
func (p *execMember) Start() (string, <-chan error, error) {
	// Chaos hook: an armed "serve/spawn" Err simulates a member binary
	// that cannot launch, exercising the supervisor's start-failed path.
	if chaos.Armed() {
		if act := chaos.Check("serve/spawn", p.name); act != nil && act.Err != nil {
			return "", nil, act.Err
		}
	}
	cmd := exec.Command(p.exe, p.args...)
	cmd.Env = append(os.Environ(), "TDFM_SERVE_CHILD=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	addrc := make(chan string, 1)
	go func() { //tdfm:allow nodeterminism child stdout forwarding lives as long as the pipe; log interleaving is cosmetic and never reaches a vote
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "tdfmserve[%s]: %s\n", p.name, line)
			if a, ok := servingAddr(line); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }() //tdfm:allow nodeterminism exit notification delivery is absorbed by the supervisor's restart loop
	select {
	case addr := <-addrc:
		p.mu.Lock()
		p.cmd = cmd
		p.mu.Unlock()
		return addr, exit, nil
	case err := <-exit:
		if err == nil {
			err = fmt.Errorf("member %s exited before announcing an address", p.name)
		}
		return "", nil, err
	case <-time.After(spawnTimeout): //tdfm:allow nodeterminism wall-clock guard against a wedged child launch; deterministic tests supervise in-process fakes and never reach a real spawn
		_ = cmd.Process.Kill()
		return "", nil, fmt.Errorf("member %s did not announce an address within %s", p.name, spawnTimeout)
	}
}

// Stop implements serve.MemberProcess: SIGTERM, triggering the child's
// cooperative drain. Safe to call after the child already exited.
func (p *execMember) Stop() {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
}

// servingAddr extracts the listen address from a child's readiness line
// ("serving on http://127.0.0.1:43210 (quorum floor 1/1, …").
func servingAddr(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "serving on http://")
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, " ")
	return "http://" + addr, true
}

// logSink prints model-lifecycle events — hot swaps, the retiring
// version's pool-stats snapshot, member restarts — to stderr.
// Request-scoped serving events stay silent; they are far too chatty
// for a log line each.
type logSink struct{}

// Emit implements obs.Sink.
func (logSink) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindSwap:
		fmt.Fprintf(os.Stderr, "tdfmserve: swap %s\n", e.Detail)
	case obs.KindPoolStats:
		if e.Key != "" {
			fmt.Fprintf(os.Stderr, "tdfmserve: pool-stats [%s] %s\n", e.Key, e.Detail)
		} else {
			fmt.Fprintf(os.Stderr, "tdfmserve: pool-stats %s\n", e.Detail)
		}
	case obs.KindMemberRestart:
		msg := fmt.Sprintf("tdfmserve: member %s %s (failures=%d", e.Member, e.Detail, e.N)
		if e.Dur > 0 {
			msg += ", backoff=" + e.Dur.String()
		}
		if e.Err != nil {
			msg += ", cause=" + e.Err.Error()
		}
		fmt.Fprintln(os.Stderr, msg+")")
	}
}

// buildServer generates the dataset, trains the technique, and wraps
// the trained classifier in the resilient serving layer (training
// mode — no registry involved).
func buildServer(dataset string, scale datagen.Scale, seed uint64, tech, arch string,
	epochs int, opts serve.Options) (*serve.Server, error) {
	cfg, ok := datagen.Presets(scale, seed)[dataset]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	train, test, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	technique, err := core.Get(tech)
	if err != nil {
		return nil, err
	}
	fmt.Printf("training %s on %s (%d samples)…\n", technique.Name(), dataset, train.Len())
	start := time.Now() //tdfm:allow nodeterminism training duration is an operator-facing log line, never part of a result
	clf, err := technique.Train(core.Config{Arch: arch, Epochs: epochs},
		core.TrainSet{Data: train}, xrand.New(seed).Split("serve"))
	if err != nil {
		return nil, err
	}
	fmt.Printf("trained in %s, test accuracy %.1f%%\n",
		time.Since(start).Round(time.Millisecond), //tdfm:allow nodeterminism training duration is an operator-facing log line, never part of a result
		metrics.Accuracy(clf.Predict(test.X), test.Labels)*100)

	names := []string{arch}
	if e, ok := technique.(*core.Ensemble); ok {
		names = e.Members
	}
	opts.Input = [3]int{cfg.Channels, cfg.Height, cfg.Width}
	return serve.New(serve.Split(clf, names), cfg.NumClasses, opts)
}

func parseScale(s string) (datagen.Scale, error) {
	switch s {
	case "tiny":
		return datagen.ScaleTiny, nil
	case "small":
		return datagen.ScaleSmall, nil
	case "medium":
		return datagen.ScaleMedium, nil
	default:
		return 0, fmt.Errorf("unknown scale %q", s)
	}
}
