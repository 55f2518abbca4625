package gpusim

import "time"

// Accessors only the tests read.

// IsLoaded reports whether a model (by key) is resident.
func (d *Device) IsLoaded(key string) bool {
	_, ok := d.loaded[key]
	return ok
}

// LoadedKeys returns the number of resident models.
func (d *Device) LoadedKeys() int { return len(d.loaded) }

// QueueLen returns the number of submitted-but-unfinished work items,
// including work queued on compute partitions.
func (d *Device) QueueLen() int {
	n := 0
	for _, l := range d.whole.lanes {
		n += l.n
	}
	for _, l := range d.slices.lanes {
		n += l.n
	}
	return n
}

// Utilization returns BusyTime / elapsed since t0.
func (d *Device) Utilization(t0 time.Duration) float64 {
	elapsed := d.clock.Now() - t0
	if elapsed <= 0 {
		return 0
	}
	return float64(d.BusyTime()) / float64(elapsed)
}

// QueueLen returns submitted-but-unfinished work items on this partition.
func (p *Partition) QueueLen() int { return p.lane.n }

// Utilization returns the partition's BusyTime / elapsed since t0.
func (p *Partition) Utilization(t0 time.Duration) float64 {
	elapsed := p.dev.clock.Now() - t0
	if elapsed <= 0 {
		return 0
	}
	return float64(p.BusyTime()) / float64(elapsed)
}

// Released reports whether the partition has merged back into the device.
func (p *Partition) Released() bool { return p.lane.released }
