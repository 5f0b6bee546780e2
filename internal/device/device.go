// Package device models storage and memory devices as FIFO queueing
// servers in virtual time. A Device charges each operation its setup
// latency plus size/bandwidth service time, serializing concurrent
// requests the way a single SATA SSD or DRAM channel would, and keeps the
// read/write/wear statistics the paper's evaluation reports (write volume
// matters: SSD lifetime is a first-class design goal of NVMalloc).
package device

import (
	"fmt"
	"time"

	"nvmalloc/internal/simtime"
	"nvmalloc/internal/sysprof"
)

// Stats aggregates traffic counters for a device.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// Device is a simulated storage/memory device.
type Device struct {
	Prof sysprof.DeviceProfile
	res  *simtime.Resource
	s    Stats
	// queueDepth is the number of concurrent operations the device can
	// service (1 for SATA SSDs and disks; DRAM uses a higher value to model
	// multiple channels).
	queueDepth int
}

// New creates a device backed by profile prof. queueDepth <= 0 defaults
// to 1.
func New(e *simtime.Engine, name string, prof sysprof.DeviceProfile, queueDepth int) *Device {
	if queueDepth <= 0 {
		queueDepth = 1
	}
	return &Device{
		Prof:       prof,
		res:        simtime.NewResource(e, name, queueDepth),
		queueDepth: queueDepth,
	}
}

// readTime returns the service time for an n-byte read.
func (d *Device) readTime(n int64) time.Duration {
	return d.Prof.ReadLatency + time.Duration(float64(n)/d.Prof.ReadBW*float64(time.Second))
}

// writeTime returns the service time for an n-byte write.
func (d *Device) writeTime(n int64) time.Duration {
	return d.Prof.WriteLatency + time.Duration(float64(n)/d.Prof.WriteBW*float64(time.Second))
}

// Read charges p the virtual time of an n-byte read.
func (d *Device) Read(p *simtime.Proc, n int64) {
	if n < 0 {
		panic("device: negative read size")
	}
	d.res.Use(p, d.readTime(n))
	d.s.Reads++
	d.s.BytesRead += n
}

// Write charges p the virtual time of an n-byte write.
func (d *Device) Write(p *simtime.Proc, n int64) {
	if n < 0 {
		panic("device: negative write size")
	}
	d.res.Use(p, d.writeTime(n))
	d.s.Writes++
	d.s.BytesWritten += n
}

// WriteVec charges p one queued write covering several extents (e.g. the
// dirty pages of one chunk shipped as a single request): one latency, summed
// transfer time.
func (d *Device) WriteVec(p *simtime.Proc, sizes []int64) {
	var total int64
	for _, n := range sizes {
		total += n
	}
	d.res.Use(p, d.writeTime(total))
	d.s.Writes++
	d.s.BytesWritten += total
}

// Stats returns a snapshot of the device's counters.
func (d *Device) Stats() Stats { return d.s }

// ResetStats zeroes the counters (used between experiment phases).
func (d *Device) ResetStats() { d.s = Stats{} }

// BusyTime returns cumulative service time.
func (d *Device) BusyTime() time.Duration { return d.res.BusyTime() }

// Utilization returns the fraction of elapsed virtual time the device was
// busy.
func (d *Device) Utilization() float64 { return d.res.Utilization() }

// WearFraction estimates the fraction of the device's rated erase budget
// consumed so far: writeVolume / (capacity × eraseCycles). Zero for devices
// without a cycle rating.
func (d *Device) WearFraction() float64 {
	if d.Prof.EraseCycles == 0 {
		return 0
	}
	budget := float64(d.Prof.Capacity()) * float64(d.Prof.EraseCycles)
	return float64(d.s.BytesWritten) / budget
}

func (d *Device) String() string {
	return fmt.Sprintf("%s: %d reads (%d B), %d writes (%d B), wear %.2e",
		d.Prof.Name, d.s.Reads, d.s.BytesRead, d.s.Writes, d.s.BytesWritten, d.WearFraction())
}
