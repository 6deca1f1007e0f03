//go:build race

package planner

const raceEnabled = true
