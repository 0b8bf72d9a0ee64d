package mlmodel

import "fmt"

// Ensemble averages the predictions of independently trained models.
// Training-data generation is itself randomized (TDGen draws templates,
// plans and profiles from a seed), so single models carry idiosyncratic
// leaf noise; an argmin over thousands of candidate plans amplifies exactly
// that noise (winner's curse). Averaging models trained on independently
// generated datasets cancels it the same way bagging cancels bootstrap
// noise — but at the dataset level, where the variance actually lives.
type Ensemble struct {
	Models []Model
}

// Predict returns the mean of the member predictions.
func (e Ensemble) Predict(x []float64) float64 {
	if len(e.Models) == 0 {
		return 0
	}
	s := 0.0
	for _, m := range e.Models {
		s += m.Predict(x)
	}
	return s / float64(len(e.Models))
}

// SaveModel support: an ensemble serializes as its members.
func ensembleEnvelope(e Ensemble) (*modelEnvelope, error) {
	var members []*modelEnvelope
	for _, m := range e.Models {
		env, err := envelope(m)
		if err != nil {
			return nil, err
		}
		members = append(members, env)
	}
	raw, err := marshalJSON(members)
	if err != nil {
		return nil, err
	}
	return &modelEnvelope{Type: "ensemble", Payload: raw}, nil
}

func ensembleFromEnvelope(payload []byte) (Model, error) {
	var members []*modelEnvelope
	if err := unmarshalJSON(payload, &members); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("mlmodel: ensemble with no members")
	}
	e := Ensemble{}
	for _, env := range members {
		m, err := fromEnvelope(env)
		if err != nil {
			return nil, err
		}
		e.Models = append(e.Models, m)
	}
	return e, e.checkWidths()
}
