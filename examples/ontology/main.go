// Ontology: the metainformation side of the paper. Builds the Figure 12
// grid ontology shell, populates it with the Figure 13 instances for the
// 3DSD task (the knowledge base the case study's catalog is read from), runs
// queries over it, and round-trips it through the JSON form the ontology
// agent exchanges.
package main

import (
	"fmt"
	"log"

	"repro/internal/ontology"
	"repro/internal/virolab"
)

func main() {
	// --- Figure 12: the ontology shell ----------------------------------
	shell := ontology.GridShell()
	fmt.Println("Figure 12 ontology shell:")
	for _, c := range shell.Classes() {
		fmt.Printf("  %-20s %2d slots  %s\n", c.Name, len(c.Slots), c.Doc)
	}

	// --- Figure 13: the populated instances ------------------------------
	kbase, err := virolab.Ontology()
	if err != nil {
		log.Fatal(err)
	}
	classes, instances := kbase.Stats()
	fmt.Printf("\nFigure 13 instances: %d (in %d classes)\n", instances, classes)

	task := kbase.Instance("T1")
	fmt.Printf("  task %s (%s), owner %s\n", task.Text("ID"), task.Text("Name"), task.Text("Owner"))
	fmt.Printf("  process description: %s, case description: %s\n",
		task.Text("ProcessDescription"), task.Text("CaseDescription"))

	// Queries, the way the coordination service navigates metadata.
	fmt.Println("\n3D models known to the system:")
	for _, in := range kbase.Query(ontology.ClassData, func(in *ontology.Instance) bool {
		return in.Text("Classification") == "3D Model"
	}) {
		fmt.Printf("  %-4s created by %s\n", in.ID, in.Text("Creator"))
	}
	fmt.Println("activities of service P3DR:")
	for _, in := range kbase.Query(ontology.ClassActivity, func(in *ontology.Instance) bool {
		return in.Text("ServiceName") == "P3DR"
	}) {
		fmt.Printf("  %-4s %-6s inputs %s -> outputs %s\n",
			in.ID, in.Text("Name"), in.Text("InputDataSet"), in.Text("OutputDataSet"))
	}

	// --- Distribution: the JSON form the ontology agent serves ------------
	// (gridenv registers this KB with its agent: GET /api/v1/ontology/3dsd).
	data, err := kbase.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	fetched, err := ontology.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	_, n := fetched.Stats()
	fmt.Printf("\nJSON round trip, as the ontology agent serves it: %d instances, %d bytes\n", n, len(data))
	if errs := fetched.ValidateRefs(); len(errs) == 0 {
		fmt.Println("all instance references validate")
	} else {
		fmt.Println("reference problems:", errs)
	}
}
