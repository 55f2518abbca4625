package gpusim

import "time"

// Accessors only the tests read.

// IsLoaded reports whether a model (by key) is resident.
func (d *Device) IsLoaded(key string) bool {
	_, ok := d.loaded[key]
	return ok
}

// QueueLen returns the number of submitted-but-unfinished work items,
// including work queued on compute partitions.
func (d *Device) QueueLen() int {
	n := len(d.queue) - d.qhead + len(d.shared)
	if d.running != nil {
		n++
	}
	for _, p := range d.parts {
		n += len(p.queue) - p.qhead
		if p.running != nil {
			n++
		}
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
func (p *Partition) QueueLen() int {
	n := len(p.queue) - p.qhead
	if p.running != nil {
		n++
	}
	return n
}

// Utilization returns the partition's BusyTime / elapsed since t0.
func (p *Partition) Utilization(t0 time.Duration) float64 {
	elapsed := p.dev.clock.Now() - t0
	if elapsed <= 0 {
		return 0
	}
	return float64(p.BusyTime()) / float64(elapsed)
}
