package main

import (
	"fmt"
	"strings"
	"time"

	"repro/ps"
)

// instanceSchedule records which wavefront schedule the auto cascade
// ran for one compiled corpus instance during a run: planes and
// doacross tiles per op, and the calibrated inline-plane grain Explain
// reports. Each compiled program calibrates its grain once, at its
// first run, so instances of one module can land on different
// schedules; comparing instances within a run, and reports across runs,
// exposes the barrier ↔ doacross flip. Mixed marks an instance whose
// schedule changed between its own ops.
type instanceSchedule struct {
	Instance    string  `json:"instance"`
	Module      string  `json:"module"`
	Schedule    string  `json:"schedule"`
	PlanesPerOp float64 `json:"planes_per_op"`
	TilesPerOp  float64 `json:"tiles_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
	Grain       int64   `json:"grain_points_per_plane"`
	NsPerPoint  int64   `json:"calibrated_ns_per_point"`
	Mixed       bool    `json:"mixed"`
}

type scheduleCount struct {
	ops, planes, tiles, doacrossOps, barrierOps int64
	wall                                        time.Duration
}

// scheduleTally accumulates RunStats per compiled corpus instance.
type scheduleTally map[string]*scheduleCount

func (t scheduleTally) note(j *job, rs *ps.RunStats) {
	c := t[j.program]
	if c == nil {
		c = &scheduleCount{}
		t[j.program] = c
	}
	c.ops++
	c.planes += rs.WavefrontPlanes
	c.tiles += rs.DoacrossTiles
	c.wall += rs.WallTime
	switch {
	case rs.DoacrossTiles > 0:
		c.doacrossOps++
	case rs.WavefrontPlanes > 0:
		c.barrierOps++
	}
}

// report renders the tally per instance, in corpus order, with each
// instance's calibrated grain.
func (t scheduleTally) report(jobs [][]*job) []instanceSchedule {
	var out []instanceSchedule
	for _, js := range jobs {
		seen := map[string]bool{}
		for _, j := range js {
			c := t[j.program]
			if c == nil || c.ops == 0 || seen[j.program] {
				continue
			}
			seen[j.program] = true
			s := instanceSchedule{
				Instance:    j.program,
				Module:      j.key,
				PlanesPerOp: float64(c.planes) / float64(c.ops),
				TilesPerOp:  float64(c.tiles) / float64(c.ops),
				MsPerOp:     ms(c.wall) / float64(c.ops),
				Mixed:       c.doacrossOps > 0 && c.barrierOps > 0,
			}
			switch {
			case s.Mixed:
				s.Schedule = "mixed"
			case c.doacrossOps > 0:
				s.Schedule = "doacross"
			case c.barrierOps > 0:
				s.Schedule = "barrier"
			default:
				s.Schedule = "no-wavefront"
			}
			s.Grain, s.NsPerPoint = explainGrain(j.runner)
			out = append(out, s)
		}
	}
	return out
}

// explainGrain reads the calibrated wavefront grain from Explain; zeros
// when the module has no wavefront.
func explainGrain(r *ps.Runner) (grain, nsPerPoint int64) {
	for _, line := range strings.Split(r.Explain(), "\n") {
		if strings.HasPrefix(line, "wavefront grain:") {
			fmt.Sscanf(line, "wavefront grain: %d points/plane (calibrated: %d ns/point)", &grain, &nsPerPoint)
			return grain, nsPerPoint
		}
	}
	return 0, 0
}

func printSchedule(ss []instanceSchedule) {
	for _, s := range ss {
		flip := ""
		if s.Mixed {
			flip = "  SCHEDULE CHANGED WITHIN RUN"
		}
		fmt.Printf("  schedule %-20s %-12s ms/op=%.3f planes/op=%.1f tiles/op=%.1f grain=%d calibrated=%dns/point%s\n",
			s.Instance, s.Schedule, s.MsPerOp, s.PlanesPerOp, s.TilesPerOp, s.Grain, s.NsPerPoint, flip)
	}
}

// doacrossShare is the share of wavefront instances whose ops ran the
// doacross schedule.
func doacrossShare(ss []instanceSchedule) float64 {
	var wave, doacross float64
	for _, s := range ss {
		if s.Schedule == "no-wavefront" {
			continue
		}
		wave++
		if s.Schedule == "doacross" || s.Mixed {
			doacross++
		}
	}
	return share(doacross, wave)
}
