package experiments

import (
	"math"
	"slices"
	"testing"
)

// The aggregation experiments' outputs, recorded bit for bit from the
// commit before the streamlet aggregator's clock became lazy and its
// provenance queue a ring. The aggregator may get cheaper; what the paper's
// Figure 10 and the §6 scale run report may not move by one ulp.

type fig10Pin struct {
	cfg           Fig10Config
	sent          uint64
	slotMBps      []uint64
	streamletMBps [][]uint64
	setShare      [][]uint64
}

var fig10Pins = []fig10Pin{
	{
		cfg:      Fig10Config{},
		sent:     64000,
		slotMBps: []uint64{0x3ffff99ae10631f8, 0x3ffff99ae10631f8, 0x400ff99ae10631f6, 0x401ff99ae10631f7},
		streamletMBps: [][]uint64{
			{0x3f947ae147ae147b}, {0x3f947ae147ae147b}, {0x3fa47ae147ae147b},
			{0x3fbb4eb9a176ddad, 0x3fab4e11dbca9692},
		},
		setShare: [][]uint64{
			{0x3ff0000000000000}, {0x3ff0000000000000}, {0x3ff0000000000000},
			{0x3fe555810624dd2f, 0x3fd554fdf3b645a2},
		},
	},
	{
		cfg:      Fig10Config{FramesPerSlot: 100_000},
		sent:     400000,
		slotMBps: []uint64{0x3ffff99ae10631fb, 0x3ffff99ae10631fc, 0x400ff99ae10631fc, 0x401ff99ae10631f6},
		streamletMBps: [][]uint64{
			{0x3f947ae147ae147b}, {0x3f947ae147ae147b}, {0x3fa47ae147ae147b},
			{0x3fbb4e8aa78e4ee3, 0x3fab4e6fcf9bb426},
		},
		setShare: [][]uint64{
			{0x3ff0000000000000}, {0x3ff0000000000000}, {0x3ff0000000000000},
			{0x3fe5555c52e72da1, 0x3fd555475a31a4be},
		},
	},
}

func bitsOf(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func TestFig10BitIdentical(t *testing.T) {
	for _, pin := range fig10Pins {
		r, err := Fig10(pin.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sent != pin.sent || r.Expected != pin.sent {
			t.Errorf("%+v: sent %d of %d, want %d", pin.cfg, r.Sent, r.Expected, pin.sent)
		}
		if got := bitsOf(r.SlotMBps); !slices.Equal(got, pin.slotMBps) {
			t.Errorf("%+v: SlotMBps %v (bits %#x), want bits %#x", pin.cfg, r.SlotMBps, got, pin.slotMBps)
		}
		for i := range pin.streamletMBps {
			if got := bitsOf(r.StreamletMBps[i]); !slices.Equal(got, pin.streamletMBps[i]) {
				t.Errorf("%+v: slot %d StreamletMBps %v (bits %#x), want bits %#x",
					pin.cfg, i, r.StreamletMBps[i], got, pin.streamletMBps[i])
			}
			if got := bitsOf(r.SetShare[i]); !slices.Equal(got, pin.setShare[i]) {
				t.Errorf("%+v: slot %d SetShare %v (bits %#x), want bits %#x",
					pin.cfg, i, r.SetShare[i], got, pin.setShare[i])
			}
		}
	}
}

func TestScaleIdentical(t *testing.T) {
	pins := []struct {
		slots, perSlot, cycles int
		services               uint64
		fairness               uint64
	}{
		{64, 8, 6400, 6400, 0x3ff0000000000000},
		{64, 100, 6500, 6500, 0x3ff0288df0cac5b4},
		{256, 4, 5120, 5120, 0x3ff0000000000000},
		{128, 10, 100_000, 100_000, 0x3ff0053e9b5ebad6},
	}
	for _, pin := range pins {
		r, err := Scale(pin.slots, pin.perSlot, pin.cycles)
		if err != nil {
			t.Fatal(err)
		}
		if r.Services != pin.services || r.Cycles != uint64(pin.cycles) ||
			math.Float64bits(r.PerSlotFairness) != pin.fairness {
			t.Errorf("Scale(%d, %d, %d) = %d services in %d cycles, fairness %v (bits %#x); want %d, %#x",
				pin.slots, pin.perSlot, pin.cycles, r.Services, r.Cycles, r.PerSlotFairness,
				math.Float64bits(r.PerSlotFairness), pin.services, pin.fairness)
		}
	}
}

// TestScaleChargesItsTransmissions runs the scale configuration for 10⁵
// cycles: an aggregator remembers each head it hands out until the
// transmission is charged, so only the head each slot holds in flight may
// still be outstanding at the end, and every byte sent is charged to a
// streamlet.
func TestScaleChargesItsTransmissions(t *testing.T) {
	res, aggs, err := scale(4, 3, 100_001)
	if err != nil {
		t.Fatal(err)
	}
	var bytes uint64
	for i, agg := range aggs {
		if agg.Pending() > 1 {
			t.Errorf("slot %d: %d heads outstanding after %d cycles, want at most the one in flight",
				i, agg.Pending(), res.Cycles)
		}
		set := agg.Set(0)
		for k := 0; k < set.Size(); k++ {
			bytes += set.Streamlet(k).Bytes
		}
	}
	if bytes != res.Services*1000 {
		t.Errorf("charged %d bytes for %d services of 1000 bytes", bytes, res.Services)
	}
}
