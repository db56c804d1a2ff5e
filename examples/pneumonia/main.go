// Pneumonia reproduces the paper's motivating example (§II): a ResNet50
// classifier for chest X-rays whose training data receives 10%
// mislabelling faults.
//
// The example trains a golden model on clean data and a faulty model on
// mislabelled data, reports both accuracies, and then — like the paper's
// Fig. 1 — finds test images the golden model classifies correctly but the
// faulty model flips, rendering them as ASCII heat maps.
//
// Run with: go run ./examples/pneumonia
package main

import (
	"fmt"
	"log"
	"strings"

	"tdfm/internal/core"
	"tdfm/internal/data"
	"tdfm/internal/datagen"
	"tdfm/internal/faultinject"
	"tdfm/internal/metrics"
	"tdfm/internal/xrand"
)

func main() {
	log.SetFlags(0)

	train, test, err := datagen.Generate(datagen.PneumoniaLike(datagen.ScaleSmall, 7))
	if err != nil {
		log.Fatal(err)
	}
	classNames := []string{"normal", "pneumonia"}
	fmt.Printf("Pneumonia* dataset: %d train / %d test X-rays (%d classes)\n",
		train.Len(), test.Len(), train.NumClasses)

	cfg := core.Config{Arch: "resnet50"}
	fmt.Println("training golden ResNet50 on clean data…")
	golden, err := core.Baseline{}.Train(cfg, core.TrainSet{Data: train}, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	goldenPred := golden.Predict(test.X)
	fmt.Printf("golden accuracy: %.1f%%\n", metrics.Accuracy(goldenPred, test.Labels)*100)

	faulty, _, err := faultinject.MislabelRate(train, 0.1, xrand.New(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training faulty ResNet50 on 10% mislabelled data…")
	faultyModel, err := core.Baseline{}.Train(cfg, core.TrainSet{Data: faulty}, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	faultyPred := faultyModel.Predict(test.X)
	fmt.Printf("faulty accuracy: %.1f%%  (AD %.1f%%)\n",
		metrics.Accuracy(faultyPred, test.Labels)*100,
		metrics.AccuracyDelta(goldenPred, faultyPred, test.Labels)*100)

	// Find up to two "Fig. 1" images: golden correct, faulty wrong, one per
	// true class if possible.
	fmt.Println("\nexamples the faults flipped (cf. paper Fig. 1):")
	shown := map[int]bool{}
	count := 0
	for i := 0; i < test.Len() && count < 2; i++ {
		if goldenPred[i] != test.Labels[i] || faultyPred[i] == test.Labels[i] || shown[test.Labels[i]] {
			continue
		}
		shown[test.Labels[i]] = true
		count++
		fmt.Printf("\ntest image %d — truth: %s, golden: %s, faulty: %s\n",
			i, classNames[test.Labels[i]], classNames[goldenPred[i]], classNames[faultyPred[i]])
		fmt.Println(renderASCII(test, i))
	}
	if count == 0 {
		fmt.Println("(no flipped images this seed — faults did little damage)")
	}

	// Apply the mitigation the paper recommends for resource-constrained
	// settings: label smoothing.
	fmt.Println("\nmitigating with label smoothing…")
	ls, err := core.LabelSmoothing{Alpha: 0.25}.Train(cfg, core.TrainSet{Data: faulty}, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	lsPred := ls.Predict(test.X)
	fmt.Printf("label-smoothing accuracy: %.1f%%  (AD %.1f%%)\n",
		metrics.Accuracy(lsPred, test.Labels)*100,
		metrics.AccuracyDelta(goldenPred, lsPred, test.Labels)*100)
}

// renderASCII draws a greyscale image as an ASCII heat map.
func renderASCII(ds *data.Dataset, idx int) string {
	const ramp = " .:-=+*#%@"
	h, w := ds.Height(), ds.Width()
	ss := ds.Channels() * h * w
	img := ds.X.Data()[idx*ss : idx*ss+h*w] // first channel
	lo, hi := img[0], img[0]
	for _, v := range img {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		b.WriteString("  ")
		for x := 0; x < w; x++ {
			v := (img[y*w+x] - lo) / span
			ch := ramp[int(float64(v*float64(len(ramp)-1))+0.5)]
			b.WriteByte(ch)
			b.WriteByte(ch) // double width for aspect ratio
		}
		b.WriteByte('\n')
	}
	return b.String()
}
