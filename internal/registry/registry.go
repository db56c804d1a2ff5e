// Package registry is the versioned model store behind the serving
// tier's hot-swap: trained classifiers are published as immutable,
// digest-verified artifacts, and servers open, pin, and watch versions
// instead of retraining at boot.
//
// Layout under a registry directory:
//
//	<dir>/manifest.jsonl       append-only journal, one JSON record per
//	                           published version (last record per version
//	                           wins, exactly like the run journal)
//	<dir>/artifacts/vNNNNNN.gob  one immutable artifact per version: the
//	                           gob encoding of core.SavedClassifier
//
// Durability follows the experiment journal's contract: the artifact is
// written first via an atomic rename (data.WriteFileAtomic), then the
// manifest line is appended in a single synced write — a crash at any
// instant leaves either a fully published version or no trace of it,
// never a manifest entry pointing at a partial artifact. Every open
// verifies the artifact's SHA-256 digest against the manifest, so a
// truncated or tampered file is rejected (ErrCorrupt) instead of served.
//
// Publish takes an exclusive advisory lock (a lock file created with
// O_EXCL); a concurrent publisher fails fast with ErrBusy rather than
// interleaving manifest appends or racing version numbers.
package registry

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/data"
)

// ManifestVersion is the manifest record schema version written by this
// package. Load skips records with a newer version rather than failing.
const ManifestVersion = 1

const (
	manifestFile = "manifest.jsonl"
	artifactDir  = "artifacts"
	lockFile     = "publish.lock"
)

// ErrBusy is returned by Publish when another publisher holds the
// registry lock. The losing publisher retries later; the registry is
// left exactly as the winning publisher leaves it. Match with errors.Is.
var ErrBusy = errors.New("registry: another publish is in progress")

// ErrCorrupt marks an artifact that failed verification — truncated,
// bit-flipped, or mismatched against its manifest digest — or a manifest
// record pointing at an unreadable artifact. Open never returns a
// classifier built from a corrupt artifact. Match with errors.Is.
var ErrCorrupt = errors.New("registry: artifact failed verification")

// ErrNotFound marks a version absent from the manifest (or an empty
// registry when asking for the latest version). Match with errors.Is.
var ErrNotFound = errors.New("registry: version not found")

// Manifest is one published model version's journal record.
type Manifest struct {
	// V is the record schema version (ManifestVersion at write time).
	V int `json:"v"`
	// Version is the monotonically increasing version number, starting
	// at 1.
	Version int `json:"version"`
	// Digest is "sha256:<hex>" over the artifact file's bytes; Open
	// recomputes and compares it before decoding.
	Digest string `json:"digest"`
	// Size is the artifact byte count (a cheap first-line truncation
	// check before hashing).
	Size int64 `json:"size"`
	// File is the artifact filename relative to the registry directory.
	File string `json:"file"`
	// Kind is core.SavedSingle or core.SavedEnsemble.
	Kind string `json:"kind"`
	// Precision is core.SavedF64, the only precision Open accepts.
	Precision string `json:"precision"`
	// Members lists the member architecture names in member order.
	Members []string `json:"members"`
	// Classes is the label-space size.
	Classes int `json:"classes"`
	// Input is the per-sample input shape (channels, height, width).
	Input [3]int `json:"input"`
	// Note is free-form provenance ("dataset=gtsrblike technique=ens"),
	// set by the publisher and never interpreted.
	Note string `json:"note,omitempty"`
	// Wall is the publication time in RFC 3339 format (diagnostic only).
	Wall string `json:"wall"`
}

// Label returns the version's display label ("v3").
func (m Manifest) Label() string { return fmt.Sprintf("v%d", m.Version) }

// PublishOptions configures Publish. The zero value is usable.
type PublishOptions struct {
	// Note is stored verbatim in the manifest record (provenance).
	Note string
	// Clock stamps the record's diagnostic Wall time; nil means the wall
	// clock. Tests inject a chaos.FakeClock for reproducible records.
	Clock chaos.Clock
}

// Publish serializes clf and installs it as the registry's next version:
// artifact first (atomic rename), manifest line second (synced append).
// It returns the new version's manifest record. A concurrent Publish on
// the same registry fails with ErrBusy; a classifier outside the
// serializable family fails with core.ErrUnsupportedClassifier; neither
// leaves a partial manifest entry or artifact behind.
func Publish(dir string, clf core.Classifier, opts PublishOptions) (Manifest, error) {
	if opts.Clock == nil {
		opts.Clock = chaos.Wall()
	}
	// Reject unserializable classifiers before touching the filesystem:
	// a failed export must leave no lock contention and no artifacts.
	saved, err := core.Export(clf)
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: publishing: %w", err)
	}
	var buf bytes.Buffer
	if err := saved.Encode(&buf); err != nil {
		return Manifest{}, fmt.Errorf("registry: publishing: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, artifactDir), 0o755); err != nil {
		return Manifest{}, fmt.Errorf("registry: creating layout under %s: %w", dir, err)
	}
	unlock, err := lock(dir)
	if err != nil {
		return Manifest{}, err
	}
	defer unlock()

	latest, _, err := Latest(dir)
	if err != nil {
		return Manifest{}, err
	}
	version := latest.Version + 1
	rec := Manifest{
		V:         ManifestVersion,
		Version:   version,
		Digest:    digest(buf.Bytes()),
		Size:      int64(buf.Len()),
		File:      filepath.Join(artifactDir, fmt.Sprintf("v%06d.gob", version)),
		Kind:      saved.Kind,
		Precision: saved.Precision,
		Classes:   saved.Classes,
		Input:     [3]int{saved.Channels, saved.Height, saved.Width},
		Note:      opts.Note,
		Wall:      opts.Clock.Now().UTC().Format(time.RFC3339),
	}
	for _, m := range saved.Members {
		rec.Members = append(rec.Members, m.Arch)
	}
	// Chaos faultpoint: fail the publish between export and install so
	// tests can assert a failed publish leaves no trace.
	if act := chaos.Check("registry.publish", rec.Label()); act != nil && act.Err != nil {
		return Manifest{}, fmt.Errorf("registry: publishing %s: %w", rec.Label(), act.Err)
	}
	err = data.WriteFileAtomic(filepath.Join(dir, rec.File), func(w io.Writer) error {
		_, werr := w.Write(buf.Bytes())
		return werr
	})
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: writing artifact %s: %w", rec.File, err)
	}
	if err := appendManifest(dir, rec); err != nil {
		// The orphaned artifact is harmless — nothing references it, and a
		// later publish of the same version number atomically replaces it.
		return Manifest{}, err
	}
	return rec, nil
}

// lock takes the registry's exclusive publish lock; the returned func
// releases it. A held lock fails with ErrBusy immediately: publishing is
// rare and retryable, so waiting publishers add risk, not value.
func lock(dir string) (func(), error) {
	path := filepath.Join(dir, lockFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("registry: locking %s: %w", dir, ErrBusy)
	}
	if err != nil {
		return nil, fmt.Errorf("registry: locking %s: %w", dir, err)
	}
	f.Close()
	return func() { os.Remove(path) }, nil
}

// appendManifest durably appends one record as a single synced JSONL
// line.
func appendManifest(dir string, rec Manifest) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("registry: encoding manifest for %s: %w", rec.Label(), err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(filepath.Join(dir, manifestFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("registry: opening manifest: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(line); err != nil {
		return fmt.Errorf("registry: appending manifest for %s: %w", rec.Label(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("registry: syncing manifest: %w", err)
	}
	return nil
}

// digest returns "sha256:<hex>" over b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum)
}

// Load reads every valid manifest record under dir, in first-publication
// order. Unparseable lines, newer-schema records, and version-less
// records — the possible remains of a crash mid-append — are skipped
// after calling warn (if non-nil) with the 1-based line number. When a
// version appears more than once the last record wins. A missing
// manifest loads as empty.
func Load(dir string, warn func(line int, err error)) ([]Manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: opening manifest: %w", err)
	}
	defer f.Close()
	var (
		recs  []Manifest
		index = make(map[int]int)
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Manifest
		bad := json.Unmarshal(text, &rec)
		if bad == nil && rec.V > ManifestVersion {
			bad = fmt.Errorf("manifest version %d newer than supported %d", rec.V, ManifestVersion)
		}
		if bad == nil && rec.Version <= 0 {
			bad = fmt.Errorf("manifest record has no version")
		}
		if bad != nil {
			if warn != nil {
				warn(line, bad)
			}
			continue
		}
		if i, ok := index[rec.Version]; ok {
			recs[i] = rec
			continue
		}
		index[rec.Version] = len(recs)
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("registry: reading manifest: %w", err)
	}
	return recs, nil
}

// Latest returns the highest-numbered published version. ok is false for
// an empty (or absent) registry.
func Latest(dir string) (m Manifest, ok bool, err error) {
	recs, err := Load(dir, nil)
	if err != nil {
		return Manifest{}, false, err
	}
	for _, rec := range recs {
		if rec.Version > m.Version {
			m, ok = rec, true
		}
	}
	return m, ok, nil
}

// Find returns the manifest record for an exact version, or ErrNotFound.
func Find(dir string, version int) (Manifest, error) {
	recs, err := Load(dir, nil)
	if err != nil {
		return Manifest{}, err
	}
	for _, rec := range recs {
		if rec.Version == version {
			return rec, nil
		}
	}
	return Manifest{}, fmt.Errorf("registry: version %d under %s: %w", version, dir, ErrNotFound)
}

// Open loads and verifies one published version and rebuilds its
// classifier: manifest lookup, size and SHA-256 digest verification
// (ErrCorrupt on any mismatch), gob decode, and core.Import. version 0
// means the latest published version (ErrNotFound when the registry is
// empty).
func Open(dir string, version int) (core.Classifier, Manifest, error) {
	var (
		rec Manifest
		err error
	)
	if version == 0 {
		var ok bool
		rec, ok, err = Latest(dir)
		if err == nil && !ok {
			err = fmt.Errorf("registry: no published versions under %s: %w", dir, ErrNotFound)
		}
	} else {
		rec, err = Find(dir, version)
	}
	if err != nil {
		return nil, Manifest{}, err
	}
	// Chaos faultpoint: fail or corrupt an open so swap tests can drill
	// the "new version refuses to load" path without touching disk.
	if act := chaos.Check("registry.open", rec.Label()); act != nil && act.Err != nil {
		return nil, Manifest{}, fmt.Errorf("registry: opening %s: %w", rec.Label(), act.Err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, rec.File))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("registry: reading artifact for %s (%v): %w", rec.Label(), err, ErrCorrupt)
	}
	if int64(len(raw)) != rec.Size {
		return nil, Manifest{}, fmt.Errorf("registry: artifact for %s is %d bytes, manifest recorded %d: %w",
			rec.Label(), len(raw), rec.Size, ErrCorrupt)
	}
	if got := digest(raw); got != rec.Digest {
		return nil, Manifest{}, fmt.Errorf("registry: artifact for %s digest %s does not match manifest %s: %w",
			rec.Label(), got, rec.Digest, ErrCorrupt)
	}
	saved, err := core.DecodeSaved(bytes.NewReader(raw))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("registry: decoding artifact for %s (%v): %w", rec.Label(), err, ErrCorrupt)
	}
	clf, err := core.Import(saved)
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("registry: importing %s: %w", rec.Label(), err)
	}
	return clf, rec, nil
}

// Watch polls the registry on the injected clock and delivers the
// manifest of every version newer than after (then newer than the last
// delivered) on the returned channel, until stop is closed. Registry
// read errors are skipped — the next poll retries — so a watcher
// tolerates a half-installed publish racing it. The channel is closed
// when the watcher exits.
func Watch(dir string, after int, clock chaos.Clock, interval time.Duration, stop <-chan struct{}) <-chan Manifest {
	if clock == nil {
		clock = chaos.Wall()
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	out := make(chan Manifest)
	last := after
	// The watcher only observes the manifest: delivery order is by
	// version number, never by goroutine schedule, and the served model
	// changes only when the consumer acts on a delivery.
	go func() { //tdfm:allow nodeterminism registry watcher delivers versions in manifest order on an injected clock; the schedule cannot reorder deliveries
		defer close(out)
		for {
			timer := clock.NewTimer(interval)
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C():
			}
			m, ok, err := Latest(dir)
			if err != nil || !ok || m.Version <= last {
				continue
			}
			select {
			case out <- m:
				last = m.Version
			case <-stop:
				return
			}
		}
	}()
	return out
}
