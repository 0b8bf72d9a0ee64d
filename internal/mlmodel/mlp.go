package mlmodel

import (
	"fmt"
	"math"
)

// MLPConfig controls the multilayer-perceptron fit.
type MLPConfig struct {
	Hidden int // hidden units (default 32)
	Epochs int // passes over the data (default 60)
	Seed   int64
}

// mlpLR is the SGD learning rate.
const mlpLR = 0.01

func (c MLPConfig) withDefaults() MLPConfig {
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	return c
}

// MLP is a one-hidden-layer perceptron with tanh activation, trained by
// per-example SGD on standardized inputs and targets. It is the "neural
// network" alternative of Section VII-A.
type MLP struct {
	w1 [][]float64 // hidden × in
	b1 []float64
	w2 []float64 // hidden
	b2 float64

	// Standardization parameters learned from the training data.
	xMean, xStd []float64
	yMean, yStd float64

	// residStd is the population std of the training residuals, recorded
	// by FitMLP as the model's homoscedastic predictive spread.
	residStd float64
}

// Predict returns the network's runtime estimate for x.
func (m *MLP) Predict(x []float64) float64 { return predictOne(m, x)[0] }

// PredictBatchDist evaluates the network hidden-unit-major: each hidden
// unit's weight row is loaded once and applied to every row of X, each row
// summing the hidden units in order. The spread is the constant residual one.
func (m *MLP) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	clear(mean[:n])
	for j, wj := range m.w1 {
		w2j := m.w2[j]
		b1j := m.b1[j]
		for r := 0; r < n; r++ {
			x := X.Row(r)
			s := b1j
			for i, w := range wj {
				s += w * (x[i] - m.xMean[i]) / m.xStd[i]
			}
			mean[r] += w2j * math.Tanh(s)
		}
	}
	for r := 0; r < n; r++ {
		mean[r] = (mean[r]+m.b2)*m.yStd + m.yMean
	}
	residBounds(n, m.residStd, mean, spread, lo, hi)
}

// FitMLP trains the perceptron on d. Deterministic for a fixed seed.
func FitMLP(d *Dataset, cfg MLPConfig) (*MLP, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("mlmodel: cannot fit an MLP on an empty dataset")
	}
	cfg = cfg.withDefaults()
	nf := d.NumFeatures()
	rng := newRng(cfg.Seed)

	m := &MLP{
		w1:    make([][]float64, cfg.Hidden),
		b1:    make([]float64, cfg.Hidden),
		w2:    make([]float64, cfg.Hidden),
		xMean: make([]float64, nf),
		xStd:  make([]float64, nf),
	}
	// Standardization.
	for _, row := range d.X {
		for i, v := range row {
			m.xMean[i] += v
		}
	}
	for i := range m.xMean {
		m.xMean[i] /= float64(d.Len())
	}
	for _, row := range d.X {
		for i, v := range row {
			dv := v - m.xMean[i]
			m.xStd[i] += dv * dv
		}
	}
	for i := range m.xStd {
		m.xStd[i] = math.Sqrt(m.xStd[i] / float64(d.Len()))
		if m.xStd[i] < 1e-12 {
			m.xStd[i] = 1
		}
	}
	for _, y := range d.Y {
		m.yMean += y
	}
	m.yMean /= float64(d.Len())
	for _, y := range d.Y {
		m.yStd += (y - m.yMean) * (y - m.yMean)
	}
	m.yStd = math.Sqrt(m.yStd / float64(d.Len()))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}

	// Xavier-style init.
	scale := math.Sqrt(1 / float64(nf))
	uniform := func() float64 { return (float64(rng.next()>>11)/float64(1<<53)*2 - 1) }
	for j := range m.w1 {
		m.w1[j] = make([]float64, nf)
		for i := range m.w1[j] {
			m.w1[j][i] = uniform() * scale
		}
		m.w2[j] = uniform() * math.Sqrt(1/float64(cfg.Hidden))
	}

	// Pre-standardize the training matrix once.
	xs := make([][]float64, d.Len())
	ys := make([]float64, d.Len())
	for r, row := range d.X {
		xr := make([]float64, nf)
		for i, v := range row {
			xr[i] = (v - m.xMean[i]) / m.xStd[i]
		}
		xs[r] = xr
		ys[r] = (d.Y[r] - m.yMean) / m.yStd
	}

	hidden := make([]float64, cfg.Hidden)
	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Fisher-Yates shuffle with the private generator.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, r := range order {
			x := xs[r]
			// Forward.
			out := m.b2
			for j, wj := range m.w1 {
				s := m.b1[j]
				for i, w := range wj {
					s += w * x[i]
				}
				hidden[j] = math.Tanh(s)
				out += m.w2[j] * hidden[j]
			}
			// Backward (squared loss).
			g := out - ys[r]
			for j, hj := range hidden {
				gw2 := g * hj
				gh := g * m.w2[j] * (1 - hj*hj)
				m.w2[j] -= mlpLR * gw2
				m.b1[j] -= mlpLR * gh
				wj := m.w1[j]
				for i, xi := range x {
					wj[i] -= mlpLR * gh * xi
				}
			}
			m.b2 -= mlpLR * g
		}
	}
	var ss float64
	for r, row := range d.X {
		e := d.Y[r] - m.Predict(row)
		ss += e * e
	}
	m.residStd = math.Sqrt(ss / float64(d.Len()))
	return m, nil
}

// MLPTrainer adapts FitMLP to the Trainer interface.
type MLPTrainer struct{ Config MLPConfig }

// Fit trains an MLP on d.
func (t MLPTrainer) Fit(d *Dataset) (Model, error) { return FitMLP(d, t.Config) }
