//go:build !race

package virolab

const raceEnabled = false
