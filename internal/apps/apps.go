// Package apps defines the seven video-analysis applications of the
// paper's evaluation (Table 4): game, traffic, dance, bb (billboard), bike,
// amber, and logo. Each is expressed as session and query specs over the
// model catalog, with specialized model families where the paper marks the
// app as prefix-batchable (PB) and k-stage queries where it marks QA-k.
package apps

import (
	"fmt"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/queryopt"
	"nexus/internal/workload"
)

// SessionLoad is a standalone session plus its arrival process (nil =
// uniform at the expected rate).
type SessionLoad struct {
	Spec globalsched.SessionSpec
	Proc workload.Process
}

// QueryLoad is a complex query plus its arrival process.
type QueryLoad struct {
	Spec globalsched.QuerySpec
	Proc workload.Process
}

// Spec is one application's workload.
type Spec struct {
	Name     string
	Sessions []SessionLoad
	Queries  []QueryLoad
}

// Builder constructs an app spec, registering any specialized model
// variants it needs into the model DB.
type Builder func(mdb *model.DB) (*Spec, error)

// Deploy builds an app against the deployment's model DB, refreshes
// profiles, and installs the app's loads.
func Deploy(d *cluster.Deployment, build Builder) (*Spec, error) {
	spec, err := build(d.ModelDB())
	if err != nil {
		return nil, err
	}
	if err := d.RefreshProfiles(); err != nil {
		return nil, err
	}
	for _, s := range spec.Sessions {
		if err := d.AddSession(s.Spec, s.Proc); err != nil {
			return nil, fmt.Errorf("apps: deploying %s: %w", spec.Name, err)
		}
	}
	for _, q := range spec.Queries {
		if err := d.AddQuery(q.Spec, q.Proc); err != nil {
			return nil, fmt.Errorf("apps: deploying %s: %w", spec.Name, err)
		}
	}
	return spec, nil
}

// WithPoisson returns a copy of the spec with Poisson arrival processes at
// each load's expected rate (the Figure 13 deployment uses Poisson
// arrivals).
func WithPoisson(spec *Spec) *Spec {
	out := &Spec{Name: spec.Name}
	for _, s := range spec.Sessions {
		s.Proc = workload.Poisson{Rate: s.Spec.ExpectedRate}
		out.Sessions = append(out.Sessions, s)
	}
	for _, q := range spec.Queries {
		q.Proc = workload.Poisson{Rate: q.Spec.ExpectedRate}
		out.Queries = append(out.Queries, q)
	}
	return out
}

// App namespaces for variant IDs: each app gets a disjoint numeric range so
// variant IDs stay parseable by the profiler's BaseOf
// ("<base>-v<appIdx*100+k>").
const (
	gameIdx = iota + 1
	bbIdx
	bikeIdx
	amberIdx
	logoIdx
)

// Game is the game-stream analysis app (§7.3.1): per game, six specialized
// LeNet digit recognizers batched by prefix, plus a specialized ResNet-50
// icon recognizer; SLO 50 ms; request rates across games follow Zipf(0.9).
func Game(games int, totalRate float64) Builder {
	return GameSLO(games, totalRate, 50*time.Millisecond)
}

// GameSLO is Game with an explicit SLO. The large-scale deployment on K80s
// uses 100 ms: a K80 runs ResNet-50 ~3.2x slower than the GTX 1080Ti the
// 50 ms case study assumes, leaving no batching room under 50 ms.
func GameSLO(games int, totalRate float64, slo time.Duration) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		if games < 1 {
			return nil, fmt.Errorf("apps: game needs >= 1 stream")
		}
		spec := &Spec{Name: "game"}
		rates := workload.SplitRate(totalRate, games, 0.9)
		for g := 0; g < games; g++ {
			digitID, err := mdb.Variant(model.LeNet5, gameIdx*100+g, 1)
			if err != nil {
				return nil, err
			}
			iconID, err := mdb.Variant(model.ResNet50, gameIdx*100+g, 1)
			if err != nil {
				return nil, err
			}
			// Six digit crops and one icon per sampled frame.
			spec.Sessions = append(spec.Sessions,
				SessionLoad{Spec: globalsched.SessionSpec{
					ID: fmt.Sprintf("game/digits-%d", g), ModelID: digitID,
					SLO: slo, ExpectedRate: rates[g] * 6,
				}},
				SessionLoad{Spec: globalsched.SessionSpec{
					ID: fmt.Sprintf("game/icon-%d", g), ModelID: iconID,
					SLO: slo, ExpectedRate: rates[g],
				}},
			)
		}
		return spec, nil
	}
}

// Traffic is the street-surveillance app (Figure 8): SSD object detection
// feeding car make/model and face recognition, whole-query SLO 400 ms.
// rushHour raises the per-frame object fan-out (§7.3.2).
func Traffic(cameras int, ratePerCamera float64, rushHour bool) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		gammaCar, gammaFace := 1.5, 0.5
		if rushHour {
			gammaCar, gammaFace = 4.0, 1.5
		}
		q := &queryopt.Query{
			Name: "traffic", SLO: 400 * time.Millisecond,
			Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: gammaCar, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
				{Gamma: gammaFace, Child: &queryopt.Node{Name: "face", ModelID: model.VGGFace}},
			}},
		}
		return &Spec{Name: "traffic", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: float64(cameras) * ratePerCamera},
		}}}, nil
	}
}

// Dance rates dance performances: person detection then pose recognition
// (QA-2). Dance footage is rated after the fact, so its SLO is generous
// enough to remain feasible even on the slower K80s of the large
// deployment (600 ms).
func Dance(rate float64) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		q := &queryopt.Query{
			Name: "dance", SLO: 600 * time.Millisecond,
			Root: &queryopt.Node{Name: "person", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: 1.2, Child: &queryopt.Node{Name: "pose", ModelID: model.OpenPose}},
			}},
		}
		return &Spec{Name: "dance", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: rate},
		}}}, nil
	}
}

// Billboard ("bb") gauges audience response: person+face detection, then
// gaze, age and sex recognition (QA-3, PB via specialized VGG-Face heads),
// SLO 500 ms.
func Billboard(rate float64) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		age, err := mdb.Variant(model.VGGFace, bbIdx*100, 1)
		if err != nil {
			return nil, err
		}
		sex, err := mdb.Variant(model.VGGFace, bbIdx*100+1, 1)
		if err != nil {
			return nil, err
		}
		q := &queryopt.Query{
			Name: "bb", SLO: 500 * time.Millisecond,
			Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: 2, Child: &queryopt.Node{Name: "gaze", ModelID: model.GazeNet, Edges: []queryopt.Edge{
					{Gamma: 0.6, Child: &queryopt.Node{Name: "age", ModelID: age}},
				}}},
				{Gamma: 1.2, Child: &queryopt.Node{Name: "sex", ModelID: sex}},
			}},
		}
		return &Spec{Name: "bb", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: rate},
		}}}, nil
	}
}

// Bike finds bike-rack occupancy on buses: object detection, crop
// classification, text detection and text recognition (QA-4, PB), SLO 600 ms.
func Bike(rate float64) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		textRec, err := mdb.Variant(model.TextCRNN, bikeIdx*100, 1)
		if err != nil {
			return nil, err
		}
		q := &queryopt.Query{
			Name: "bike", SLO: 600 * time.Millisecond,
			Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: 0.8, Child: &queryopt.Node{Name: "rack", ModelID: model.InceptionV3, Edges: []queryopt.Edge{
					{Gamma: 0.5, Child: &queryopt.Node{Name: "textdet", ModelID: model.TextCRNN, Edges: []queryopt.Edge{
						{Gamma: 1.5, Child: &queryopt.Node{Name: "textrec", ModelID: textRec}},
					}}},
				}}},
			}},
		}
		return &Spec{Name: "bike", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: rate},
		}}}, nil
	}
}

// Amber matches vehicles to "Amber Alert" descriptions: detection, car
// make/model, text detection/recognition (QA-4, PB), SLO 600 ms.
func Amber(rate float64) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		plateRec, err := mdb.Variant(model.TextCRNN, amberIdx*100, 1)
		if err != nil {
			return nil, err
		}
		carVariant, err := mdb.Variant(model.GoogLeNetCar, amberIdx*100, 1)
		if err != nil {
			return nil, err
		}
		q := &queryopt.Query{
			Name: "amber", SLO: 600 * time.Millisecond,
			Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: 2.5, Child: &queryopt.Node{Name: "makemodel", ModelID: carVariant, Edges: []queryopt.Edge{
					{Gamma: 0.4, Child: &queryopt.Node{Name: "platedet", ModelID: model.TextCRNN, Edges: []queryopt.Edge{
						{Gamma: 1, Child: &queryopt.Node{Name: "platerec", ModelID: plateRec}},
					}}},
				}}},
			}},
		}
		return &Spec{Name: "amber", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: rate},
		}}}, nil
	}
}

// Logo audits corporate logo placement in sports footage: person
// detection, pose, logo detection, number detection and recognition
// (QA-5, PB), SLO 1 s.
func Logo(rate float64) Builder {
	return func(mdb *model.DB) (*Spec, error) {
		numberRec, err := mdb.Variant(model.LeNet5, logoIdx*100, 1)
		if err != nil {
			return nil, err
		}
		logoDet, err := mdb.Variant(model.InceptionV3, logoIdx*100, 1)
		if err != nil {
			return nil, err
		}
		q := &queryopt.Query{
			Name: "logo", SLO: time.Second,
			Root: &queryopt.Node{Name: "person", ModelID: model.SSD, Edges: []queryopt.Edge{
				{Gamma: 3, Child: &queryopt.Node{Name: "pose", ModelID: model.OpenPose, Edges: []queryopt.Edge{
					{Gamma: 0.7, Child: &queryopt.Node{Name: "logodet", ModelID: logoDet, Edges: []queryopt.Edge{
						{Gamma: 0.5, Child: &queryopt.Node{Name: "numdet", ModelID: model.TextCRNN, Edges: []queryopt.Edge{
							{Gamma: 1, Child: &queryopt.Node{Name: "numrec", ModelID: numberRec}},
						}}},
					}}},
				}}},
			}},
		}
		return &Spec{Name: "logo", Queries: []QueryLoad{{
			Spec: globalsched.QuerySpec{Query: q, ExpectedRate: rate},
		}}}, nil
	}
}

// All returns the full seven-application mix of the large-scale deployment
// (§7.4), scaled by the given factor (scale 1 targets a ~100 K80 cluster).
func All(scale float64) []Builder {
	return []Builder{
		GameSLO(20, 300*scale, 100*time.Millisecond),
		Traffic(20, 20*scale, false),
		Dance(80 * scale),
		Billboard(60 * scale),
		Bike(50 * scale),
		Amber(40 * scale),
		Logo(30 * scale),
	}
}

// Names lists the Table 4 application names in order.
func Names() []string {
	return []string{"game", "traffic", "dance", "bb", "bike", "amber", "logo"}
}
