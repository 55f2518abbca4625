package profiler

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nexus/internal/model"
)

// freshProfile builds and validates m's profile on gpu from scratch, with
// its own memo table: the reference the shared calibration path must
// reproduce field for field.
func freshProfile(t *testing.T, m *model.Model, gpu GPUType) *Profile {
	t.Helper()
	cal := calibrations[BaseOf(m.ID)]
	l1 := time.Duration(float64(cal.lat1080Ti) * gpuScale[gpu])
	beta := time.Duration(float64(l1) * cal.fixedFrac)
	alpha := l1 - beta
	if alpha < time.Microsecond {
		alpha = time.Microsecond
	}
	memPerItem := 16 * m.Layer(0).ActBytes
	if memPerItem < 1<<20 {
		memPerItem = 1 << 20
	}
	sat := 1.0
	if spec, ok := Specs()[gpu]; ok && spec.PeakTFLOPS > 0 && alpha > 0 {
		achieved := float64(m.FLOPs()) / alpha.Seconds()
		sat = achieved / (spec.PeakTFLOPS * 1e12)
		if sat < 0.05 {
			sat = 0.05
		}
		if sat > 1 {
			sat = 1
		}
	}
	p := &Profile{
		ModelID: m.ID, GPU: gpu, Alpha: alpha, Beta: beta,
		MaxBatch: cal.maxBatch, PreprocCPU: cal.preproc, PostprocCPU: cal.postproc,
		MemBase: m.ParamBytes() + workspaceBytes, MemPerItem: memPerItem,
		SMSaturation: sat,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// calibrationFamily returns base and variants of it that differ in the
// fields Calibrate derives per model: specialized (same sizes, new weights)
// and with appended FC layers (more FLOPs and parameters).
func calibrationFamily(t *testing.T, mdb *model.DB, base string) []*model.Model {
	t.Helper()
	bm := mdb.MustGet(base)
	family := []*model.Model{bm}
	for _, retrain := range []int{1, bm.NumLayers() - 1} {
		v, err := model.Specialize(bm, fmt.Sprintf("%s-v%d", base, retrain), retrain)
		if err != nil {
			t.Fatal(err)
		}
		family = append(family, v)
	}
	return append(family, model.AppendFC(bm, base+"-v99", 2, 512))
}

func sameProfile(t *testing.T, got, want *Profile) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s: shared profile\n%+v\nwant fresh\n%+v", want.ModelID, want.GPU, *got, *want)
	}
	for b := 1; b <= want.MaxBatch; b++ {
		if g, w := got.BatchLatency(b), want.BatchLatency(b); g != w {
			t.Fatalf("%s/%s: l(%d) = %v, want %v", want.ModelID, want.GPU, b, g, w)
		}
	}
}

func TestCalibrateMatchesFreshProfile(t *testing.T) {
	mdb := model.Catalog()
	for base := range calibrations {
		family := calibrationFamily(t, mdb, base)
		for gpu := range gpuScale {
			var table *time.Duration
			for _, m := range family {
				if !Calibrated(m.ID, gpu) {
					t.Fatalf("%s on %s not calibrated", m.ID, gpu)
				}
				p, err := Calibrate(m, gpu)
				if err != nil {
					t.Fatal(err)
				}
				sameProfile(t, p, freshProfile(t, m, gpu))
				if table == nil {
					table = &p.lat[0]
				} else if &p.lat[0] != table {
					t.Fatalf("%s on %s does not share its base's memo table", m.ID, gpu)
				}
			}
		}
	}
}

func TestCalibrateRejectsUncalibrated(t *testing.T) {
	m := model.MustNew("custom", "t", []model.Layer{{Kind: model.Input}})
	if Calibrated(m.ID, GTX1080Ti) {
		t.Fatal("uncalibrated model reported calibrated")
	}
	if _, err := Calibrate(m, GTX1080Ti); err == nil {
		t.Fatal("uncalibrated model profiled")
	}
	if Calibrated(model.ResNet50, TPUv2) {
		t.Fatal("unprofiled GPU type reported calibrated")
	}
	if _, err := Calibrate(model.Catalog().MustGet(model.ResNet50), TPUv2); err == nil {
		t.Fatal("unprofiled GPU type profiled")
	}
}
