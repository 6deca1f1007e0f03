//go:build race

package virolab

const raceEnabled = true
