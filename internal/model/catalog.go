package model

import (
	"fmt"
	"sync"
)

// Catalog model IDs. These are the models the paper's evaluation uses
// (Table 1, §7.1, §7.3, §7.5).
const (
	LeNet5       = "lenet5"
	VGG7         = "vgg7"
	ResNet50     = "resnet50"
	Inception4   = "inception4"
	InceptionV3  = "inception_v3"
	Darknet53    = "darknet53"
	SSD          = "ssd"
	VGGFace      = "vgg_face"
	GoogLeNetCar = "googlenet_car"
	OpenPose     = "openpose"
	GazeNet      = "gazenet"
	TextCRNN     = "text_crnn"
)

// CatalogIDs lists every model the built-in catalog provides.
func CatalogIDs() []string {
	return []string{
		LeNet5, VGG7, ResNet50, Inception4, InceptionV3, Darknet53,
		SSD, VGGFace, GoogLeNetCar, OpenPose, GazeNet, TextCRNN,
	}
}

// Catalog returns a model DB populated with representative schemas for the
// paper's model zoo. Layer structures are synthetic but carry realistic
// total FLOPs and parameter sizes, with compute concentrated in conv stacks
// and parameters concentrated in the final FC layers — the shape that makes
// prefix batching profitable (§6.3).
//
// Every DB Catalog returns holds the same base models, built once per
// process; they are read-only and must not be mutated. Models registered
// later, variants included, belong to their DB alone.
func Catalog() *DB {
	base := catalogBase().order
	db := NewDB()
	db.Grow(len(base))
	for _, m := range base {
		db.add(m)
	}
	return db
}

// catalogBase builds the catalog's base models into one DB on its first
// call; later calls return that DB, which nothing may change.
var catalogBase = sync.OnceValue(func() *DB {
	db := NewDB()
	db.MustRegister(buildConvNet(LeNet5, "digit-recognition", convNetSpec{
		blocks: 2, blockFLOPs: 8e6, blockParams: 20e3,
		fcUnits: 84, classes: 10,
	}))
	db.MustRegister(buildConvNet(VGG7, "classification", convNetSpec{
		blocks: 5, blockFLOPs: 120e6, blockParams: 500e3,
		fcUnits: 512, classes: 100,
	}))
	db.MustRegister(buildConvNet(ResNet50, "object-recognition", convNetSpec{
		blocks: 16, blockFLOPs: 240e6, blockParams: 1.45e6,
		fcUnits: 2048, classes: 1000,
	}))
	db.MustRegister(buildConvNet(Inception4, "object-recognition", convNetSpec{
		blocks: 17, blockFLOPs: 520e6, blockParams: 2.4e6,
		fcUnits: 1536, classes: 1000,
	}))
	db.MustRegister(buildConvNet(InceptionV3, "object-recognition", convNetSpec{
		blocks: 11, blockFLOPs: 520e6, blockParams: 2.0e6,
		fcUnits: 2048, classes: 1000,
	}))
	db.MustRegister(buildConvNet(Darknet53, "object-recognition", convNetSpec{
		blocks: 26, blockFLOPs: 720e6, blockParams: 1.55e6,
		fcUnits: 1024, classes: 1000,
	}))
	db.MustRegister(buildDetector(SSD, "object-detection", 22, 1.4e9, 4.5e6))
	db.MustRegister(buildConvNet(VGGFace, "face-recognition", convNetSpec{
		blocks: 13, blockFLOPs: 1.18e9, blockParams: 1.1e6,
		fcUnits: 4096, classes: 2622,
	}))
	db.MustRegister(buildConvNet(GoogLeNetCar, "car-make-model", convNetSpec{
		blocks: 9, blockFLOPs: 170e6, blockParams: 650e3,
		fcUnits: 1024, classes: 431,
	}))
	db.MustRegister(buildConvNet(OpenPose, "pose-estimation", convNetSpec{
		blocks: 14, blockFLOPs: 2.0e9, blockParams: 3.7e6,
		fcUnits: 512, classes: 38,
	}))
	db.MustRegister(buildConvNet(GazeNet, "gaze-estimation", convNetSpec{
		blocks: 6, blockFLOPs: 150e6, blockParams: 800e3,
		fcUnits: 256, classes: 3,
	}))
	db.MustRegister(buildConvNet(TextCRNN, "text-recognition", convNetSpec{
		blocks: 7, blockFLOPs: 300e6, blockParams: 1.2e6,
		fcUnits: 512, classes: 96,
	}))
	return db
})

type convNetSpec struct {
	blocks      int
	blockFLOPs  float64
	blockParams float64
	fcUnits     int64
	classes     int64
}

// buildConvNet produces input -> N conv blocks -> pool -> FC -> softmax.
// The FC carries base weights ("<id>/base"): the conv trunk is the shared
// prefix and the FC head is what transfer learning retrains.
func buildConvNet(id, task string, spec convNetSpec) *Model {
	layers := []Layer{{
		Name: "input", Kind: Input,
		ActBytes:  224 * 224 * 3,
		WeightsID: "",
	}}
	for i := 0; i < spec.blocks; i++ {
		layers = append(layers, Layer{
			Name:       fmt.Sprintf("conv_block%d", i),
			Kind:       Conv,
			FLOPs:      int64(spec.blockFLOPs),
			ParamBytes: int64(spec.blockParams) * 4,
			ActBytes:   256 * 1024,
			WeightsID:  fmt.Sprintf("%s/conv#%d", id, i),
		})
	}
	layers = append(layers,
		Layer{
			Name: "global_pool", Kind: Pool,
			FLOPs:    spec.fcUnits * 49,
			ActBytes: spec.fcUnits * 4,
		},
		Layer{
			Name:       "fc",
			Kind:       FC,
			FLOPs:      2 * spec.fcUnits * spec.classes,
			ParamBytes: spec.fcUnits * spec.classes * 4,
			ActBytes:   spec.classes * 4,
			WeightsID:  id + "/fc",
		},
		Layer{
			Name: "softmax", Kind: Softmax,
			FLOPs:    spec.classes * 3,
			ActBytes: spec.classes * 4,
		},
	)
	return MustNew(id, task, layers)
}

// buildDetector produces a detector: conv trunk plus multi-scale detection
// heads instead of a classifier.
func buildDetector(id, task string, blocks int, blockFLOPs, blockParams float64) *Model {
	layers := []Layer{{Name: "input", Kind: Input, ActBytes: 512 * 512 * 3}}
	for i := 0; i < blocks; i++ {
		layers = append(layers, Layer{
			Name:       fmt.Sprintf("conv_block%d", i),
			Kind:       Conv,
			FLOPs:      int64(blockFLOPs),
			ParamBytes: int64(blockParams) * 4,
			ActBytes:   512 * 1024,
			WeightsID:  fmt.Sprintf("%s/conv#%d", id, i),
		})
	}
	layers = append(layers, Layer{
		Name:       "detect_heads",
		Kind:       Detect,
		FLOPs:      int64(blockFLOPs / 2),
		ParamBytes: int64(blockParams) * 4,
		ActBytes:   64 * 1024,
		WeightsID:  id + "/detect",
	})
	return MustNew(id, task, layers)
}

// SpecializeFamily builds n specialized variants of base (retraining the
// last `retrain` layers), registers them in db, and returns their IDs.
// Variant IDs are "<base>-v<k>".
func SpecializeFamily(db *DB, base string, n, retrain int) ([]string, error) {
	ids := make([]string, n)
	for k := range ids {
		id, err := db.Variant(base, k, retrain)
		if err != nil {
			return nil, err
		}
		ids[k] = id
	}
	return ids, nil
}
