package bpred

// Perceptron is the perceptron branch predictor of Jiménez & Lin (HPCA
// 2001) — contemporary with the paper's machine. Each (hashed) branch PC
// owns a weight vector over the global history; the prediction is the sign
// of the dot product, and training bumps weights on a mispredict or a
// low-confidence correct prediction. It handles long linear correlations
// that saturating-counter tables cannot.
type Perceptron struct {
	weights [][]int16
	history []int8 // +1 taken, -1 not taken
	mask    uint64 // simlint:nosync geometry
	theta   int32  // simlint:nosync derived from the history length
}

// NewPerceptron returns a perceptron predictor with the given table size
// (power of two) and history length.
func NewPerceptron(entries int, histLen int) *Perceptron {
	checkPow2(entries)
	if histLen < 1 {
		histLen = 1
	}
	w := make([][]int16, entries)
	backing := make([]int16, entries*(histLen+1))
	for i := range w {
		w[i], backing = backing[:histLen+1], backing[histLen+1:]
	}
	return &Perceptron{
		weights: w,
		history: make([]int8, histLen),
		mask:    uint64(entries - 1),
		// Optimal threshold from the paper: 1.93h + 14.
		theta: int32(1.93*float64(histLen) + 14),
	}
}

// NewDefaultPerceptron returns the configuration used by the predictor
// ablation: 512 perceptrons over 24 bits of history.
func NewDefaultPerceptron() *Perceptron { return NewPerceptron(512, 24) }

func (p *Perceptron) index(pc uint64) uint64 { return (pc >> 2) & p.mask }

// output computes the dot product of the selected weight vector with the
// history (weight 0 is the bias).
func (p *Perceptron) output(pc uint64) int32 {
	w := p.weights[p.index(pc)]
	sum := int32(w[0])
	for i, h := range p.history {
		sum += int32(w[i+1]) * int32(h)
	}
	return sum
}

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

// Update implements Predictor: perceptron learning with threshold theta,
// then shift the outcome into the history.
func (p *Perceptron) Update(pc uint64, taken bool) {
	sum := p.output(pc)
	predicted := sum >= 0
	t := int32(-1)
	if taken {
		t = 1
	}
	if predicted != taken || abs32(sum) <= p.theta {
		w := p.weights[p.index(pc)]
		w[0] = clampW(int32(w[0]) + t)
		for i, h := range p.history {
			w[i+1] = clampW(int32(w[i+1]) + t*int32(h))
		}
	}
	copy(p.history, p.history[1:])
	if taken {
		p.history[len(p.history)-1] = 1
	} else {
		p.history[len(p.history)-1] = -1
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// clampW keeps weights within the 8-bit budget the paper's hardware uses.
func clampW(v int32) int16 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int16(v)
}
