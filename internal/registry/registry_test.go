package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/datagen"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// fixture builds an untrained (fast) classifier plus a probe batch.
func fixture(t *testing.T, arch string, seed uint64) (core.Classifier, *tensor.Tensor) {
	t.Helper()
	cfg := datagen.Presets(datagen.ScaleTiny, 7)["gtsrblike"]
	train, test, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewUntrained(core.Config{Arch: arch}, train, xrand.New(seed).Split("registry"))
	if err != nil {
		t.Fatal(err)
	}
	return clf, test.X.SliceRows(0, 4)
}

// publish is a test helper that fails the test on error.
func publish(t *testing.T, dir string, clf core.Classifier, note string) Manifest {
	t.Helper()
	m, err := Publish(dir, clf, PublishOptions{Note: note, Clock: chaos.NewFake()})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return m
}

// TestPublishOpenRoundTrip pins the full cycle: publish two versions,
// open both by number and the latest implicitly, and get bit-identical
// predictions from the version that was published.
func TestPublishOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clf1, probe := fixture(t, "convnet", 3)
	clf2, _ := fixture(t, "deconvnet", 4)

	m1 := publish(t, dir, clf1, "first")
	m2 := publish(t, dir, clf2, "second")
	if m1.Version != 1 || m2.Version != 2 {
		t.Fatalf("versions = %d, %d, want 1, 2", m1.Version, m2.Version)
	}
	if !strings.HasPrefix(m1.Digest, "sha256:") || m1.Size <= 0 {
		t.Fatalf("manifest digest/size not populated: %+v", m1)
	}
	if m1.Kind != core.SavedSingle || m1.Precision != core.SavedF64 {
		t.Fatalf("manifest kind/precision = %q/%q", m1.Kind, m1.Precision)
	}
	if len(m1.Members) != 1 || m1.Members[0] != "convnet" {
		t.Fatalf("manifest members = %v", m1.Members)
	}

	back, got, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("Open(1): %v", err)
	}
	if got.Version != 1 || got.Digest != m1.Digest {
		t.Fatalf("Open(1) manifest = %+v", got)
	}
	want := clf1.PredictProbs(probe).Data()
	have := back.PredictProbs(probe).Data()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
			t.Fatalf("probs[%d]: %v != %v (not bit-identical)", i, have[i], want[i])
		}
	}

	_, latest, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open(latest): %v", err)
	}
	if latest.Version != 2 {
		t.Fatalf("latest version = %d, want 2", latest.Version)
	}
}

// TestOpenSameArtifactTwiceIsIdentical pins the hot-swap determinism
// premise: two independent opens of one artifact predict bit-identically.
func TestOpenSameArtifactTwiceIsIdentical(t *testing.T) {
	dir := t.TempDir()
	clf, probe := fixture(t, "convnet", 9)
	publish(t, dir, clf, "")
	a, _, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ap, bp := a.PredictProbs(probe).Data(), b.PredictProbs(probe).Data()
	for i := range ap {
		if math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			t.Fatalf("probs[%d] differ across opens: %v != %v", i, ap[i], bp[i])
		}
	}
}

// TestOpenRejectsTruncatedArtifact pins ErrCorrupt for an artifact cut
// short after publication.
func TestOpenRejectsTruncatedArtifact(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 5)
	m := publish(t, dir, clf, "")
	path := filepath.Join(dir, m.File)
	if err := os.Truncate(path, m.Size/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, m.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on truncated artifact: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenRejectsDigestMismatch pins ErrCorrupt for a bit-flipped
// artifact whose size still matches the manifest.
func TestOpenRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 6)
	m := publish(t, dir, clf, "")
	path := filepath.Join(dir, m.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, m.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on bit-flipped artifact: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenRejectsMissingArtifact pins ErrCorrupt for a manifest record
// whose artifact file was deleted.
func TestOpenRejectsMissingArtifact(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 7)
	m := publish(t, dir, clf, "")
	if err := os.Remove(filepath.Join(dir, m.File)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, m.Version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on missing artifact: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenRejectsF32Artifact pins the retired float32 precision: an
// intact artifact tagged "f32" (as earlier releases published float32
// serving twins) fails Open with the core sentinel instead of loading.
func TestOpenRejectsF32Artifact(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 8)
	m := publish(t, dir, clf, "")
	raw, err := os.ReadFile(filepath.Join(dir, m.File))
	if err != nil {
		t.Fatal(err)
	}
	saved, err := core.DecodeSaved(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	saved.Precision = "f32"
	var buf bytes.Buffer
	if err := saved.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.File), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Digest, m.Size, m.Precision = digest(buf.Bytes()), int64(buf.Len()), "f32"
	if err := appendManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, m.Version); !errors.Is(err, core.ErrUnsupportedClassifier) {
		t.Fatalf("Open on an f32 artifact: err = %v, want ErrUnsupportedClassifier", err)
	}
}

// TestPublishRejectsUnknownClassifier pins that Publish fails with the
// core sentinel for unserializable types and leaves no trace: no
// manifest, no artifacts, no held lock.
func TestPublishRejectsUnknownClassifier(t *testing.T) {
	dir := t.TempDir()
	_, err := Publish(dir, opaqueClf{}, PublishOptions{Clock: chaos.NewFake()})
	if !errors.Is(err, core.ErrUnsupportedClassifier) {
		t.Fatalf("err = %v, want core.ErrUnsupportedClassifier", err)
	}
	if recs, err := Load(dir, nil); err != nil || len(recs) != 0 {
		t.Fatalf("manifest after failed publish: %v records, err %v", len(recs), err)
	}
	clf, _ := fixture(t, "convnet", 8)
	if m := publish(t, dir, clf, ""); m.Version != 1 {
		t.Fatalf("registry not usable after failed publish: version = %d", m.Version)
	}
}

// opaqueClf is a Classifier outside the serializable family.
type opaqueClf struct{}

func (opaqueClf) PredictProbs(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0), 2) }
func (opaqueClf) Predict(x *tensor.Tensor) []int               { return make([]int, x.Dim(0)) }

// TestConcurrentPublishFailsBusy pins the lock contract: a publish
// against a held lock fails fast with ErrBusy and writes nothing, and
// the registry works again once the lock is released.
func TestConcurrentPublishFailsBusy(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 10)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Hold the lock the way a concurrent publisher would.
	unlock, err := lock(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Publish(dir, clf, PublishOptions{Clock: chaos.NewFake()}); !errors.Is(err, ErrBusy) {
		t.Fatalf("publish against held lock: err = %v, want ErrBusy", err)
	}
	if recs, err := Load(dir, nil); err != nil || len(recs) != 0 {
		t.Fatalf("manifest gained records during busy publish: %v, err %v", len(recs), err)
	}
	unlock()
	if m := publish(t, dir, clf, ""); m.Version != 1 {
		t.Fatalf("post-unlock publish version = %d, want 1", m.Version)
	}
}

// TestConcurrentPublishRace pins that many racing publishers never
// corrupt the manifest: every success gets a unique version and every
// failure is ErrBusy.
func TestConcurrentPublishRace(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 11)
	const racers = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		versions []int
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Publish(dir, clf, PublishOptions{Clock: chaos.NewFake()})
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				versions = append(versions, m.Version)
			} else if !errors.Is(err, ErrBusy) {
				t.Errorf("racing publish failed with %v, want nil or ErrBusy", err)
			}
		}()
	}
	wg.Wait()
	if len(versions) == 0 {
		t.Fatal("no racing publish succeeded")
	}
	seen := make(map[int]bool)
	for _, v := range versions {
		if seen[v] {
			t.Fatalf("duplicate version %d across racing publishers", v)
		}
		seen[v] = true
	}
	recs, err := Load(dir, nil)
	if err != nil || len(recs) != len(versions) {
		t.Fatalf("manifest has %d records for %d successes (err %v)", len(recs), len(versions), err)
	}
	for _, rec := range recs {
		if _, _, err := Open(dir, rec.Version); err != nil {
			t.Errorf("Open(%d) after race: %v", rec.Version, err)
		}
	}
}

// TestPublishFaultLeavesNoTrace pins the install ordering: a chaos fault
// between export and install aborts the publish with no manifest entry,
// and the next publish reuses the version number.
func TestPublishFaultLeavesNoTrace(t *testing.T) {
	defer chaos.Reset()
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 12)
	boom := errors.New("injected publish fault")
	chaos.Arm("registry.publish", "v1", chaos.Action{Err: boom})
	if _, err := Publish(dir, clf, PublishOptions{Clock: chaos.NewFake()}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if recs, err := Load(dir, nil); err != nil || len(recs) != 0 {
		t.Fatalf("manifest after faulted publish: %d records, err %v", len(recs), err)
	}
	chaos.Reset()
	if m := publish(t, dir, clf, ""); m.Version != 1 {
		t.Fatalf("version after recovery = %d, want 1", m.Version)
	}
}

// TestLatestAndFindOnEmptyRegistry pins the not-found paths.
func TestLatestAndFindOnEmptyRegistry(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := Latest(dir); err != nil || ok {
		t.Fatalf("Latest on empty registry: ok=%v err=%v", ok, err)
	}
	if _, err := Find(dir, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Find(3) err = %v, want ErrNotFound", err)
	}
	if _, _, err := Open(dir, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open(latest) on empty registry err = %v, want ErrNotFound", err)
	}
}

// TestLoadSkipsBadLines pins journal-style resilience: garbage lines and
// future-schema records are skipped (reported via warn), valid records
// survive, and the last record per version wins.
func TestLoadSkipsBadLines(t *testing.T) {
	dir := t.TempDir()
	lines := strings.Join([]string{
		`{"v":1,"version":1,"digest":"sha256:aa","size":1,"file":"artifacts/v000001.gob"}`,
		`{"v":1,"version":`, // torn write
		`not json at all`,
		fmt.Sprintf(`{"v":%d,"version":9,"digest":"sha256:ff","size":1,"file":"x"}`, ManifestVersion+1),
		`{"v":1,"digest":"sha256:bb","size":1,"file":"y"}`, // no version
		`{"v":1,"version":1,"digest":"sha256:cc","size":2,"file":"artifacts/v000001.gob"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned []int
	recs, err := Load(dir, func(line int, err error) { warned = append(warned, line) })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Version != 1 || recs[0].Digest != "sha256:cc" {
		t.Fatalf("recs = %+v, want single v1 with last-wins digest", recs)
	}
	if len(warned) != 4 {
		t.Fatalf("warned lines = %v, want 4 warnings", warned)
	}
}

// TestWatchDeliversNewVersions pins the watcher on a fake clock: it
// reports versions published after its floor, in order, with zero
// wall-clock sleeps.
func TestWatchDeliversNewVersions(t *testing.T) {
	dir := t.TempDir()
	clf, _ := fixture(t, "convnet", 13)
	first := publish(t, dir, clf, "")

	clk := chaos.NewFake()
	stop := make(chan struct{})
	defer close(stop)
	got := Watch(dir, first.Version, clk, time.Second, stop)

	// Poll fires with nothing new: no delivery.
	clk.BlockUntil(1)
	clk.Advance(time.Second)
	clk.BlockUntil(1) // watcher is back on its timer, having sent nothing

	second := publish(t, dir, clf, "update")
	clk.Advance(time.Second)
	m := <-got
	if m.Version != second.Version || m.Digest != second.Digest {
		t.Fatalf("watch delivered %+v, want version %d", m, second.Version)
	}

	// The same version is not redelivered.
	clk.BlockUntil(1)
	clk.Advance(time.Second)
	clk.BlockUntil(1)
	select {
	case m := <-got:
		t.Fatalf("watch redelivered %+v", m)
	default:
	}
}

// TestWatchStops pins that closing stop ends the watcher and closes its
// channel.
func TestWatchStops(t *testing.T) {
	dir := t.TempDir()
	clk := chaos.NewFake()
	stop := make(chan struct{})
	got := Watch(dir, 0, clk, time.Second, stop)
	clk.BlockUntil(1)
	close(stop)
	if _, open := <-got; open {
		t.Fatal("watch channel still open after stop")
	}
}
