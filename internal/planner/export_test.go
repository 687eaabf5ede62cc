package planner

import "modelcc/internal/rollout"

// GainRows returns the gain rows of the last Decide on p, one per member
// the plan read, in the order reduce weighs them: each the row of the
// member's unit.
func GainRows(p *rollout.Pool) [][]float64 {
	ar := arenaOf(p)
	c := ar.candidates
	rows := make([][]float64, len(ar.top))
	for j, m := range ar.top {
		rows[j] = ar.gains[int(m.unit)*c : (int(m.unit)+1)*c]
	}
	return rows
}
