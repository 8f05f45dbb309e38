package nn

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
)

// Nadam is the Nesterov-accelerated Adam optimizer used by the paper
// (initial learning rate 1e-4, per-epoch decay 0.004).
type Nadam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// Decay is the multiplicative per-epoch schedule: each epoch the
	// learning rate is (1-Decay)× the previous epoch's, i.e. the paper's
	// "drops to 0.996 of its value each epoch" with Decay = 0.004. (This
	// is not Keras' hyperbolic 1/(1+Decay·epoch) decay.)
	Decay float64

	t     int
	epoch int
}

// NewNadam returns the paper's optimizer configuration.
func NewNadam() *Nadam {
	return &Nadam{LR: 1e-4, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, Decay: 0.004}
}

// EffectiveLR returns the decayed learning rate for the current epoch:
// LR·(1-Decay)^epoch, the paper's 0.996-per-epoch geometric schedule.
func (o *Nadam) EffectiveLR() float64 {
	return o.LR * math.Pow(1-o.Decay, float64(o.epoch))
}

// NextEpoch advances the decay schedule.
func (o *Nadam) NextEpoch() { o.epoch++ }

// Step applies one Nadam update to the parameters using their accumulated
// gradients (scaled by 1/batch), then leaves gradients untouched (caller
// zeroes them).
func (o *Nadam) Step(params []*Param, batch int) {
	o.t++
	lr := o.EffectiveLR()
	b1, b2 := o.Beta1, o.Beta2
	t := float64(o.t)
	// Nesterov momentum schedule (simplified Keras Nadam).
	bc1 := 1 - math.Pow(b1, t)
	bc1Next := 1 - math.Pow(b1, t+1)
	bc2 := 1 - math.Pow(b2, t)
	scale := 1 / float64(batch)
	for _, p := range params {
		for i, g := range p.G {
			g *= scale
			p.M[i] = b1*p.M[i] + (1-b1)*g
			p.V[i] = b2*p.V[i] + (1-b2)*g*g
			mHat := p.M[i]/bc1Next*b1 + (1-b1)*g/bc1
			vHat := p.V[i] / bc2
			p.W[i] -= lr * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

// Sample is one training example.
type Sample struct {
	X []float64
	Y []float64
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// Workers caps the goroutines one training step fans out to
	// (0 = GOMAXPROCS). Results do not depend on it.
	Workers int
	Seed    uint64
	// Verbose, if non-nil, receives one line per epoch.
	Verbose func(epoch int, trainLoss, valLoss float64)
}

// DefaultTrainConfig mirrors the paper's schedule scaled for CPU training.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 16, Seed: 1}
}

// History records per-epoch losses of a training run.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	BestEpoch int
	BestVal   float64
}

// Fit trains the network with Nadam + MSE, evaluating the validation set
// each epoch and restoring the best-validation weights at the end (the
// paper selects the epoch with the best validation performance).
//
// Each minibatch runs as one batched float32 forward/backward on the GEMM
// core (see trainer); the master weights, the Nadam moments and Step stay
// float64. The trained weights are bitwise identical for any Workers and
// GOMAXPROCS.
func Fit(net *Network, opt *Nadam, train, val []Sample, cfg TrainConfig) (*History, error) {
	if len(train) == 0 {
		return nil, errors.New("nn: Fit needs training samples")
	}
	if cfg.Epochs <= 0 {
		return nil, errors.New("nn: Fit needs positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := checkSamples(net, train); err != nil {
		return nil, err
	}
	t, err := newTrainer(net, cfg.BatchSize, workers)
	if err != nil {
		return nil, err
	}
	defer t.release()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xabcdef))
	hist := &History{BestVal: math.Inf(1), BestEpoch: -1}
	masterParams := net.Params()
	var best [][]float64

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	batch := make([]Sample, 0, cfg.BatchSize)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch = batch[:0]
			for _, i := range order[start:min(start+cfg.BatchSize, len(order))] {
				batch = append(batch, train[i])
			}
			// The summed sample loss weights each batch by its size:
			// averaging batch means would over-weight a partial last batch.
			epochLoss += t.step(batch)
			opt.Step(masterParams, len(batch))
			net.ZeroGrad()
		}
		trainLoss := epochLoss / float64(len(order))
		valLoss := trainLoss
		if len(val) > 0 {
			valLoss, err = t.evaluate(net, val)
			if err != nil {
				return nil, err
			}
		}
		hist.TrainLoss = append(hist.TrainLoss, trainLoss)
		hist.ValLoss = append(hist.ValLoss, valLoss)
		if valLoss < hist.BestVal {
			hist.BestVal = valLoss
			hist.BestEpoch = epoch
			best = snapshot(masterParams)
		}
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, trainLoss, valLoss)
		}
		opt.NextEpoch()
	}
	if best != nil {
		for i, p := range masterParams {
			copy(p.W, best[i])
		}
	}
	return hist, nil
}

func snapshot(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

// evalBatch is the chunk size Evaluate runs the batched forward in.
const evalBatch = 16

// Evaluate returns the mean MSE over a sample set, on the same batched
// float32 forward Fit trains with.
func Evaluate(net *Network, data []Sample) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("nn: Evaluate needs samples")
	}
	t, err := newTrainer(net, min(evalBatch, len(data)), runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	defer t.release()
	return t.evaluate(net, data)
}
