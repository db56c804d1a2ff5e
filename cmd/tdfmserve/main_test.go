package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"tdfm/internal/core"
	"tdfm/internal/datagen"
	"tdfm/internal/registry"
	"tdfm/internal/xrand"
)

// TestMain doubles as the shard-mode child entry point: `-shard`
// re-execs this binary (os.Executable) with TDFM_SERVE_CHILD=1 for each
// member process, and the child must behave exactly like tdfmserve, not
// like a test runner.
func TestMain(m *testing.M) {
	if os.Getenv("TDFM_SERVE_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// healthJSON mirrors the /healthz fields the tests assert on.
type healthJSON struct {
	Status  string `json:"status"`
	Members []struct {
		Name, Breaker string
	} `json:"members"`
	Model *struct {
		Version int    `json:"version"`
		Label   string `json:"label"`
		Digest  string `json:"digest"`
	} `json:"model"`
	Quorum string `json:"quorum"`
}

// predictJSON mirrors the /predict fields the tests assert on.
type predictJSON struct {
	Predictions []int  `json:"predictions"`
	Quorum      string `json:"quorum"`
}

// getHealth fetches and decodes GET /healthz.
func getHealth(t *testing.T, addr string) healthJSON {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// postPredict sends one all-zeros instance of the dataset's input size
// and decodes the reply (the HTTP status is returned alongside so tests
// can poll through degraded phases).
func postPredict(t *testing.T, addr string, cfg datagen.Config) (int, predictJSON) {
	t.Helper()
	instance := make([]float64, cfg.Channels*cfg.Height*cfg.Width)
	payload, _ := json.Marshal(map[string][][]float64{"instances": {instance}})
	resp, err := http.Post("http://"+addr+"/predict", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p predictJSON
	_ = json.NewDecoder(resp.Body).Decode(&p)
	return resp.StatusCode, p
}

// shutdown SIGTERMs the process (the server under test shares it) and
// waits for run to drain and return.
func shutdown(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

// startServer launches run(args) and waits for the listen address.
func startServer(t *testing.T, args string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(strings.Fields(args), ready) }()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(120 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", done
}

// publishEnsemble publishes an untrained two-member voting ensemble
// (fast: no training) to a fresh registry and returns its manifest.
func publishEnsemble(t *testing.T, dir string, seed uint64) (registry.Manifest, datagen.Config) {
	t.Helper()
	cfg := datagen.Presets(datagen.ScaleTiny, 1)["gtsrblike"]
	train, _, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	archs := []string{"convnet", "deconvnet"}
	members := make([]core.Classifier, len(archs))
	for i, arch := range archs {
		m, err := core.NewUntrained(core.Config{Arch: arch}, train, xrand.New(seed+uint64(i)).Split("serve-test"))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	clf := &core.VotingClassifier{Members: members, Classes: cfg.NumClasses}
	man, err := registry.Publish(dir, clf, registry.PublishOptions{Note: "e2e"})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return man, cfg
}

// TestServeEndToEnd boots the real binary path — train a 1-epoch
// baseline at tiny scale, listen on an ephemeral port — exercises both
// endpoints over TCP, and shuts down via SIGTERM's drain path.
func TestServeEndToEnd(t *testing.T) {
	addr, done := startServer(t,
		"-addr 127.0.0.1:0 -technique base -arch convnet -epochs 1 -scale tiny -min-quorum 1")

	health := getHealth(t, addr)
	if health.Status != "ok" || len(health.Members) != 1 || health.Members[0].Breaker != "closed" {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Model != nil {
		t.Fatalf("training mode reported a registry model: %+v", health.Model)
	}
	if health.Quorum != "1/1" {
		t.Fatalf("healthz quorum = %q, want 1/1", health.Quorum)
	}

	// One instance of the dataset's exact input size; contents are
	// arbitrary — the server must answer with quorum 1/1.
	cfg := datagen.Presets(datagen.ScaleTiny, 1)["gtsrblike"]
	status, pred := postPredict(t, addr, cfg)
	if status != http.StatusOK || pred.Quorum != "1/1" || len(pred.Predictions) != 1 {
		t.Fatalf("predict: status %d, reply %+v", status, pred)
	}
	if pred.Predictions[0] < 0 || pred.Predictions[0] >= cfg.NumClasses {
		t.Fatalf("prediction %d outside class range 0..%d", pred.Predictions[0], cfg.NumClasses-1)
	}

	shutdown(t, done)
}

// TestRegistryServeEndToEnd boots registry mode: publish an ensemble,
// serve it with -model (no training at boot), and check that /healthz
// reports the artifact's version, digest, and quorum.
func TestRegistryServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	man, cfg := publishEnsemble(t, dir, 11)

	addr, done := startServer(t, "-addr 127.0.0.1:0 -model "+dir)

	health := getHealth(t, addr)
	if health.Model == nil {
		t.Fatalf("healthz has no model block: %+v", health)
	}
	if health.Model.Version != man.Version || health.Model.Digest != man.Digest || health.Model.Label != "v1" {
		t.Fatalf("healthz model = %+v, want %s %s", health.Model, man.Label(), man.Digest)
	}
	if health.Quorum != "2/2" {
		t.Fatalf("healthz quorum = %q, want 2/2", health.Quorum)
	}

	status, pred := postPredict(t, addr, cfg)
	if status != http.StatusOK || pred.Quorum != "2/2" || len(pred.Predictions) != 1 {
		t.Fatalf("predict: status %d, reply %+v", status, pred)
	}

	shutdown(t, done)
}

// TestWatchHotSwapsEndToEnd boots -watch mode against a registry with
// one version, publishes a second, and waits for the server to hot-swap
// to it — verifying /healthz tracks the active version across swaps and
// /predict keeps answering.
func TestWatchHotSwapsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, cfg := publishEnsemble(t, dir, 21)

	addr, done := startServer(t, "-addr 127.0.0.1:0 -model "+dir+" -watch -watch-interval 25ms")

	if h := getHealth(t, addr); h.Model == nil || h.Model.Version != 1 {
		t.Fatalf("initial model = %+v, want v1", h.Model)
	}

	man2, _ := publishEnsemble(t, dir, 22)
	deadline := time.Now().Add(30 * time.Second)
	for {
		h := getHealth(t, addr)
		if h.Model != nil && h.Model.Version == man2.Version {
			if h.Model.Digest != man2.Digest {
				t.Fatalf("swapped digest = %s, want %s", h.Model.Digest, man2.Digest)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never swapped to %s; healthz model = %+v", man2.Label(), h.Model)
		}
		time.Sleep(10 * time.Millisecond)
	}

	status, pred := postPredict(t, addr, cfg)
	if status != http.StatusOK || pred.Quorum != "2/2" {
		t.Fatalf("predict after swap: status %d, reply %+v", status, pred)
	}

	shutdown(t, done)
}

// TestShardServeEndToEnd boots -shard mode: the parent re-execs this
// test binary as two supervised `-member` child processes, fans votes
// out over HTTP, and must reach full quorum once both children are up.
func TestShardServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs child processes")
	}
	dir := t.TempDir()
	man, cfg := publishEnsemble(t, dir, 31)

	addr, done := startServer(t, "-addr 127.0.0.1:0 -model "+dir+" -shard -min-quorum 1")

	// Children come up asynchronously; poll until both members vote.
	deadline := time.Now().Add(120 * time.Second)
	for {
		status, pred := postPredict(t, addr, cfg)
		if status == http.StatusOK && pred.Quorum == "2/2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never reached full quorum: status %d, reply %+v", status, pred)
		}
		time.Sleep(50 * time.Millisecond)
	}

	health := getHealth(t, addr)
	if health.Model == nil || health.Model.Digest != man.Digest {
		t.Fatalf("healthz model = %+v, want digest %s", health.Model, man.Digest)
	}
	if len(health.Members) != 2 {
		t.Fatalf("healthz members = %+v, want 2 shards", health.Members)
	}

	shutdown(t, done)
}

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "bogus"},
		{"-workers", "-1"},
		{"-dataset", "nope"},
		{"-technique", "nope"},
		{"-precision", "f16"},
		{"-precision", "f32"}, // the float32 mirror is gone: unknown flag
		{"-batch-cap", "8"},
		{"-watch"},       // requires -model
		{"-shard"},       // requires -model
		{"-member", "0"}, // requires -model
		{"-model", "reg", "-shard", "-member", "0"}, // mutually exclusive
		{"-model", "reg", "-shard", "-watch"},       // children are version-pinned
		{"-model", "/nonexistent/registry"},         // empty registry
	} {
		if err := run(args, nil); err == nil {
			t.Fatalf("run(%v) accepted invalid flags", args)
		}
	}
}
