// Package repro reproduces Yu, Bai, Wang, Ji, and Marinescu,
// "Metainformation and Workflow Management for Solving Complex Problems in
// Grid Environments" (IPDPS 2004): an intelligent, agent-based grid
// environment with a process-description language, an ATN-driven
// coordination service, a GP-based planning service, a Protégé-style
// ontology store, and the virus-reconstruction case study.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// map); EXPERIMENTS.md names the test or command that regenerates each table
// and figure of the paper.
package repro
