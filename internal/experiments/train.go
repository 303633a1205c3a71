package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"bootes/internal/cluster"
	"bootes/internal/core"
	"bootes/internal/dtree"
	"bootes/internal/eigen"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

// ReorderGainThreshold is the paper's 10% traffic-reduction threshold: below
// it, reordering is labelled "not worth it".
const ReorderGainThreshold = 0.10

// LabeledMatrix is one labelled training/validation example.
type LabeledMatrix struct {
	Spec     workloads.Spec
	Features core.Features
	// Label encodes the best action (0 = no reorder, 1+i = CandidateKs[i]).
	Label int
	// BestGain is 1 − traffic(best k)/traffic(original), the realized
	// traffic reduction of the best cluster count.
	BestGain float64
	// TrafficByK maps each candidate k to its B-traffic ratio vs original
	// (geomean across the reference cache sizes).
	TrafficByK map[int]float64
}

// labelCaches returns the reference cache sizes used for labelling: the
// paper's three accelerator caches, scaled with the matrix suite so the
// cache/working-set ratio matches the full-size setup.
func (c Config) labelCaches() []int64 {
	caches := make([]int64, 0, len(c.Accelerators))
	for _, a := range c.Accelerators {
		sz := int64(float64(a.CacheBytes) * c.Scale)
		if sz < 4<<10 {
			sz = 4 << 10
		}
		caches = append(caches, sz)
	}
	return caches
}

// LabelMatrix runs the spectral sweep on a and determines the optimal action
// by the row-granular traffic model across the reference cache sizes.
func (c Config) LabelMatrix(spec workloads.Spec, a *sparse.CSR) (LabeledMatrix, error) {
	c = c.WithDefaults()
	lm := LabeledMatrix{Spec: spec, TrafficByK: map[int]float64{}}
	lm.Features = core.ExtractFeatures(a)

	aOp, bOp := operands(a)
	const elem = 12
	caches := c.labelCaches()

	baseline := make([]float64, len(caches))
	for i, cache := range caches {
		est, err := trafficmodel.EstimateB(aOp, bOp, cache, elem)
		if err != nil {
			return lm, err
		}
		baseline[i] = float64(est.BTraffic)
	}

	ks := candidateKsFor(a.Rows)
	entries, err := core.SpectralSweep(a, ks, looseSpectral(c))
	if err != nil {
		return lm, err
	}

	bestK, bestRatio := 0, 1.0
	for _, e := range entries {
		logSum, n := 0.0, 0
		for i, cache := range caches {
			if baseline[i] == 0 {
				continue
			}
			est, err := trafficmodel.EstimateBWithPerm(aOp, bOp, e.Perm, cache, elem)
			if err != nil {
				return lm, err
			}
			ratio := float64(est.BTraffic) / baseline[i]
			if ratio <= 0 {
				ratio = 1e-12
			}
			logSum += math.Log(ratio)
			n++
		}
		ratio := 1.0
		if n > 0 {
			ratio = math.Exp(logSum / float64(n))
		}
		lm.TrafficByK[e.K] = ratio
		if ratio < bestRatio {
			bestRatio, bestK = ratio, e.K
		}
	}

	lm.BestGain = 1 - bestRatio
	if bestK == 0 || lm.BestGain < ReorderGainThreshold {
		lm.Label = core.ClassNoReorder
	} else {
		label, err := core.LabelForK(bestK)
		if err != nil {
			return lm, err
		}
		lm.Label = label
	}
	return lm, nil
}

// candidateKsFor filters CandidateKs to counts sensible for n rows.
func candidateKsFor(n int) []int {
	var ks []int
	for _, k := range core.CandidateKs {
		if k*4 <= n { // need a few rows per cluster to be meaningful
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		ks = []int{2}
	}
	return ks
}

// looseEigen returns eigensolver options tuned for labelling throughput:
// clustering only needs a rough subspace.
func looseEigen() eigen.Options {
	return eigen.Options{Tol: 1e-4, MaxRestarts: 8}
}

// looseSpectral bundles the loose eigensolver and k-means options with the
// run's seed and pinned similarity tier.
func looseSpectral(c Config) core.SpectralOptions {
	return core.SpectralOptions{
		Seed: c.Seed, Eigen: looseEigen(), KMeans: looseKMeans(), Similarity: c.Similarity,
	}
}

// looseKMeans trades a little clustering polish for labelling throughput.
func looseKMeans() cluster.KMeansOptions {
	return cluster.KMeansOptions{MaxIters: 25, Restarts: 1, Tol: 1e-4}
}

// BuildCorpus labels the full training corpus. Labelling one matrix is
// independent of every other (generation and the spectral sweep are seeded
// per spec), so corpus entries fan out across Config.Jobs workers; the
// returned slice is always in spec order.
func (c Config) BuildCorpus() ([]LabeledMatrix, error) {
	c = c.WithDefaults()
	specs := workloads.TrainingCorpus(c.Scale * 2) // corpus sizes are modest already
	out := make([]LabeledMatrix, len(specs))
	errs := make([]error, len(specs))
	parallel.ForWorkers(c.Jobs, len(specs), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			spec := specs[idx]
			a := spec.Generate(1)
			lm, err := c.LabelMatrix(spec, a)
			if err != nil {
				errs[idx] = fmt.Errorf("labelling %s: %w", spec.ID, err)
				continue
			}
			out[idx] = lm
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TrainReport summarizes decision-tree training (paper §5.1).
type TrainReport struct {
	Model         *dtree.Tree
	TrainSize     int
	TestSize      int
	TrainAccuracy float64
	TestAccuracy  float64
	// GateAccuracy scores only the binary reorder/no-reorder decision.
	GateAccuracy float64
	// TolerantAccuracy counts a prediction correct when the traffic of the
	// predicted action is within 5% of the best action's traffic — the
	// paper's observation that a "wrong" k is often only 1.01-1.05× slower.
	TolerantAccuracy float64
	ModelBytes       int64
	ClassCounts      []int
	Importance       []float64
}

// predictionTolerable reports whether the predicted class achieves traffic
// within 5% of the labelled-best action for matrix m.
func predictionTolerable(pred int, m LabeledMatrix) bool {
	ratioOf := func(label int) float64 {
		k, err := core.KForLabel(label)
		if err != nil || k == 0 {
			return 1.0 // no reorder keeps baseline traffic
		}
		if r, ok := m.TrafficByK[k]; ok {
			return r
		}
		return 1.0
	}
	return ratioOf(pred) <= ratioOf(m.Label)+0.05
}

// TrainModel labels the corpus, splits 70/30, trains a balanced CART tree,
// and reports accuracy — the reproduction of the paper's §5.1 analysis.
func (c Config) TrainModel() (*TrainReport, []LabeledMatrix, error) {
	c = c.WithDefaults()
	corpus, err := c.BuildCorpus()
	if err != nil {
		return nil, nil, err
	}
	return c.trainOn(corpus)
}

// TrainOn trains on an already-labelled corpus (70/30 split), letting
// callers label once and reuse the corpus across analyses.
func (c Config) TrainOn(corpus []LabeledMatrix) (*TrainReport, []LabeledMatrix, error) {
	return c.trainOn(corpus)
}

func (c Config) trainOn(corpus []LabeledMatrix) (*TrainReport, []LabeledMatrix, error) {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x7ea1))
	shuffled := append([]LabeledMatrix(nil), corpus...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	split := len(shuffled) * 7 / 10
	train, test := shuffled[:split], shuffled[split:]

	toSamples := func(ms []LabeledMatrix) []dtree.Sample {
		ss := make([]dtree.Sample, len(ms))
		for i, m := range ms {
			ss[i] = dtree.Sample{Features: m.Features.Vector(), Label: m.Label}
		}
		return ss
	}
	trainS, testS := toSamples(train), toSamples(test)

	model, err := dtree.Train(trainS, core.NumClasses, dtree.Options{
		MaxDepth:       6,
		MinLeaf:        2,
		BalanceClasses: true,
	})
	if err != nil {
		return nil, nil, err
	}

	rep := &TrainReport{Model: model, TrainSize: len(train), TestSize: len(test)}
	rep.TrainAccuracy, _ = model.Accuracy(trainS)
	if len(testS) > 0 {
		rep.TestAccuracy, _ = model.Accuracy(testS)
	}
	gateOK, tolerantOK := 0, 0
	for i, s := range testS {
		pred, err := model.Predict(s.Features)
		if err != nil {
			return nil, nil, err
		}
		if (pred == core.ClassNoReorder) == (s.Label == core.ClassNoReorder) {
			gateOK++
		}
		if predictionTolerable(pred, test[i]) {
			tolerantOK++
		}
	}
	if len(testS) > 0 {
		rep.GateAccuracy = float64(gateOK) / float64(len(testS))
		rep.TolerantAccuracy = float64(tolerantOK) / float64(len(testS))
	}
	rep.ModelBytes = model.ModeledBytes()
	rep.ClassCounts = make([]int, core.NumClasses)
	for _, m := range corpus {
		rep.ClassCounts[m.Label]++
	}
	rep.Importance = model.FeatureImportance(len(core.FeatureNames))

	c.printf("Decision-tree analysis (paper §5.1)\n")
	c.printf("  corpus: %d matrices (train %d / test %d)\n", len(corpus), rep.TrainSize, rep.TestSize)
	c.printf("  class counts [no-reorder k=2 k=4 k=8 k=16 k=32]: %v\n", rep.ClassCounts)
	c.printf("  train accuracy: %.1f%%   test accuracy: %.1f%%   gate accuracy: %.1f%%   tolerant accuracy: %.1f%% (paper: 88%%)\n",
		100*rep.TrainAccuracy, 100*rep.TestAccuracy, 100*rep.GateAccuracy, 100*rep.TolerantAccuracy)
	c.printf("  model size: %d bytes (paper: ~11 KB)\n", rep.ModelBytes)
	c.printf("  feature importance:\n")
	for i, name := range core.FeatureNames {
		c.printf("    %-10s %.4f\n", name, rep.Importance[i])
	}
	return rep, test, nil
}
