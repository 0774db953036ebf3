package seeder

import (
	"fmt"
	"sort"

	"farm/internal/netmodel"
	"farm/internal/placement"
)

// Fault tolerance (one of the paper's §VIII future-work avenues): the
// seeder can survive a switch failure by excluding the switch from the
// placement model and re-optimizing. Seeds that ran there are gone —
// their state died with the switch — so movable seeds redeploy fresh on
// surviving candidates, while seeds pinned exclusively to the failed
// switch take their whole task down (C1's all-or-nothing semantics).

// FailSwitch records a switch as failed, discards the seeds it hosted,
// and re-optimizes the surviving tasks over the remaining fabric.
// Tasks that can no longer place every seed are undeployed and returned
// in dropped.
func (sd *Seeder) FailSwitch(id netmodel.SwitchID) (dropped []string, err error) {
	if _, ok := sd.soils[id]; !ok {
		return nil, fmt.Errorf("seeder: unknown switch %d", id)
	}
	if sd.failed[id] {
		return nil, fmt.Errorf("seeder: switch %d already failed", id)
	}
	sd.failed[id] = true

	// Seeds on the failed switch are lost: forget their deployment, and
	// clear the soil, since its seeds died with the switch. Left there,
	// they would keep running in the emulation and, once the switch
	// recovers, refuse a seed of the same ID placed back on it.
	for _, sid := range sd.soils[id].SeedIDs() {
		_ = sd.soils[id].Remove(sid)
	}
	names := make([]string, 0, len(sd.tasks))
	for n := range sd.tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, s := range sd.tasks[n].seeds {
			if s.deployed && s.deployedAt == id {
				s.deployed = false
				delete(sd.placements, s.id)
			}
		}
	}
	sd.touch(id)

	if err := sd.optimizeAndApply(); err != nil {
		return nil, err
	}

	// Tasks with any undeployed seed could not be fully re-placed:
	// undeploy them entirely (C1).
	for _, n := range names {
		t := sd.tasks[n]
		complete := true
		for _, s := range t.seeds {
			if !s.deployed {
				complete = false
				break
			}
		}
		if complete {
			continue
		}
		dropped = append(dropped, n)
		for _, s := range t.seeds {
			if s.deployed {
				if rmErr := sd.soils[s.deployedAt].Remove(s.id); rmErr != nil {
					sd.logf("seeder: failover undeploy %s: %v", s.id, rmErr)
				}
				s.deployed = false
				delete(sd.placements, s.id)
			}
		}
		sd.forget(t)
	}
	sort.Strings(dropped)
	return dropped, nil
}

// RecoverSwitch returns a previously failed switch to service and
// re-optimizes, letting the optimizer migrate seeds back if beneficial.
func (sd *Seeder) RecoverSwitch(id netmodel.SwitchID) error {
	if !sd.failed[id] {
		return fmt.Errorf("seeder: switch %d is not failed", id)
	}
	delete(sd.failed, id)
	// Migrating seeds back onto the recovered switch requires looking at
	// every current placement, so this replan is a full solve.
	sd.touched = nil
	return sd.optimizeAndApply()
}

// FailedSwitches lists currently failed switches, sorted.
func (sd *Seeder) FailedSwitches() []netmodel.SwitchID {
	out := make([]netmodel.SwitchID, 0, len(sd.failed))
	for id := range sd.failed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveSwitches filters the topology's switches through the failure set.
func (sd *Seeder) liveSwitches() []placement.SwitchInfo {
	var out []placement.SwitchInfo
	for _, sw := range sd.fab.Topology().Switches() {
		if sd.failed[sw.ID] {
			continue
		}
		out = append(out, placement.SwitchInfo{ID: sw.ID, Capacity: sw.Capacity})
	}
	return out
}

// filterCandidates drops failed switches from a candidate set.
func (sd *Seeder) filterCandidates(cands []netmodel.SwitchID) []netmodel.SwitchID {
	if len(sd.failed) == 0 {
		return cands
	}
	out := make([]netmodel.SwitchID, 0, len(cands))
	for _, c := range cands {
		if !sd.failed[c] {
			out = append(out, c)
		}
	}
	return out
}
