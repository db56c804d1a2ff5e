package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"tdfm/internal/models"
	"tdfm/internal/nn"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// ErrUnsupportedClassifier marks a classifier type that cannot be
// serialized by Export (or reconstructed by Import): the model registry
// stores networks as (architecture, weight snapshot) pairs, so only
// classifiers built from registry architectures round-trip. Match with
// errors.Is.
var ErrUnsupportedClassifier = errors.New("core: classifier type cannot be serialized")

// SavedF64 is the precision tag (SavedClassifier.Precision) of an
// artifact served with its trained float64 weights, the only precision
// Import accepts.
const SavedF64 = "f64"

// Saved classifier kinds (SavedClassifier.Kind).
const (
	// SavedSingle is a single-network classifier.
	SavedSingle = "single"
	// SavedEnsemble is a majority-vote ensemble (VotingClassifier).
	SavedEnsemble = "ensemble"
)

// SavedMember is one serialized network: its registry architecture name
// and full weight snapshot (parameters plus batch-norm running stats).
type SavedMember struct {
	// Arch is the model-registry architecture name the network was built
	// from.
	Arch string
	// Snapshot holds the trained weights.
	Snapshot *nn.Snapshot
}

// SavedClassifier is the serializable form of a trained classifier: the
// wire format of model-registry artifacts (internal/registry). It always
// stores float64 weights plus the metadata needed to rebuild the exact
// network (input shape, class count, width multiplier) and the precision
// the classifier serves at.
type SavedClassifier struct {
	// Kind is SavedSingle or SavedEnsemble.
	Kind string
	// Precision is SavedF64, the serving storage of the classifier.
	Precision string
	// Members holds one entry per network (exactly one for SavedSingle).
	Members []SavedMember
	// Classes is the label-space size.
	Classes int
	// Channels, Height, Width are the per-sample input dimensions the
	// networks were built for.
	Channels, Height, Width int
	// WidthMult is the capacity multiplier the networks were built with.
	WidthMult float64
}

// Export captures a trained classifier in its serializable form. It
// supports the classifiers the techniques produce — single networks and
// voting ensembles of networks. Any other classifier type returns an
// error wrapping ErrUnsupportedClassifier.
func Export(c Classifier) (*SavedClassifier, error) {
	switch v := c.(type) {
	case *builtModel:
		return &SavedClassifier{
			Kind:      SavedSingle,
			Precision: SavedF64,
			Members:   []SavedMember{exportNet(v)},
			Classes:   v.classes,
			Channels:  v.inC, Height: v.inH, Width: v.inW,
			WidthMult: v.cfg.WidthMult,
		}, nil
	case *VotingClassifier:
		if len(v.Members) == 0 {
			return nil, fmt.Errorf("core: exporting empty ensemble: %w", ErrUnsupportedClassifier)
		}
		out := &SavedClassifier{Kind: SavedEnsemble, Precision: SavedF64, Classes: v.Classes}
		for i, m := range v.Members {
			ms, err := Export(m)
			if err != nil {
				return nil, fmt.Errorf("core: exporting ensemble member %d: %w", i, err)
			}
			if ms.Kind != SavedSingle {
				return nil, fmt.Errorf("core: ensemble member %d is itself an ensemble: %w", i, ErrUnsupportedClassifier)
			}
			if i == 0 {
				out.Channels, out.Height, out.Width = ms.Channels, ms.Height, ms.Width
				out.WidthMult = ms.WidthMult
			}
			out.Members = append(out.Members, ms.Members[0])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("core: exporting %T: %w", c, ErrUnsupportedClassifier)
	}
}

// exportNet snapshots one built network.
func exportNet(m *builtModel) SavedMember {
	m.mu.Lock()
	defer m.mu.Unlock()
	return SavedMember{Arch: m.cfg.Arch, Snapshot: nn.TakeSnapshot(m.net)}
}

// Import rebuilds a classifier from its serialized form: every member's
// architecture is rebuilt from the model registry at the saved input
// shape and its weights restored from the snapshot, so the imported
// classifier's predictions are byte-identical to the exported one's.
// Unknown kinds, precisions (the retired "f32" included), and
// architectures return errors wrapping ErrUnsupportedClassifier.
func Import(s *SavedClassifier) (Classifier, error) {
	if s.Precision != SavedF64 {
		return nil, fmt.Errorf("core: importing precision %q: %w", s.Precision, ErrUnsupportedClassifier)
	}
	switch s.Kind {
	case SavedSingle:
		if len(s.Members) != 1 {
			return nil, fmt.Errorf("core: single-model artifact has %d members: %w", len(s.Members), ErrUnsupportedClassifier)
		}
		m, err := importNet(s, 0)
		if err != nil {
			return nil, err
		}
		return m, nil
	case SavedEnsemble:
		if len(s.Members) == 0 {
			return nil, fmt.Errorf("core: ensemble artifact has no members: %w", ErrUnsupportedClassifier)
		}
		members := make([]Classifier, len(s.Members))
		for i := range s.Members {
			m, err := importNet(s, i)
			if err != nil {
				return nil, fmt.Errorf("core: importing ensemble member %d: %w", i, err)
			}
			members[i] = m
		}
		return &VotingClassifier{Members: members, Classes: s.Classes}, nil
	default:
		return nil, fmt.Errorf("core: importing kind %q: %w", s.Kind, ErrUnsupportedClassifier)
	}
}

// importNet rebuilds member i of s and restores its weights.
func importNet(s *SavedClassifier, i int) (*builtModel, error) {
	m := s.Members[i]
	if m.Snapshot == nil {
		return nil, fmt.Errorf("core: member %d (%s) has no weight snapshot: %w", i, m.Arch, ErrUnsupportedClassifier)
	}
	widthMult := s.WidthMult
	if widthMult <= 0 {
		widthMult = 1
	}
	// The init RNG only seeds weights that Restore immediately overwrites;
	// a fixed stream keeps Import deterministic without threading a seed.
	net, err := models.Build(m.Arch, models.BuildConfig{
		InChannels: s.Channels,
		Height:     s.Height,
		Width:      s.Width,
		NumClasses: s.Classes,
		WidthMult:  widthMult,
		RNG:        xrand.New(1).Split("import-" + m.Arch),
	})
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding %s (%v): %w", m.Arch, err, ErrUnsupportedClassifier)
	}
	if err := m.Snapshot.Restore(net); err != nil {
		return nil, fmt.Errorf("core: restoring %s weights: %w", m.Arch, err)
	}
	nn.InstallArena(net, tensor.NewArena())
	return &builtModel{
		net: net, classes: s.Classes,
		cfg: Config{Arch: m.Arch, WidthMult: widthMult},
		inC: s.Channels, inH: s.Height, inW: s.Width,
	}, nil
}

// Encode writes the saved classifier in gob format.
func (s *SavedClassifier) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("core: encoding saved classifier: %w", err)
	}
	return nil
}

// DecodeSaved reads a saved classifier in gob format.
func DecodeSaved(r io.Reader) (*SavedClassifier, error) {
	var s SavedClassifier
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding saved classifier: %w", err)
	}
	return &s, nil
}

// ReleaseArenas drops the storage of every per-network activation arena
// held by the classifier. Callers retire a classifier with it — after a
// model hot-swap drains the old version — so the retired networks'
// buffers are garbage even while something still references the
// classifier. The classifier remains usable; its arenas simply start
// cold. Unknown classifier types are a no-op.
func ReleaseArenas(c Classifier) {
	switch v := c.(type) {
	case *builtModel:
		v.mu.Lock()
		if a := v.net.Arena(); a != nil {
			a.Release()
		}
		v.mu.Unlock()
	case *VotingClassifier:
		for _, m := range v.Members {
			ReleaseArenas(m)
		}
	}
}
