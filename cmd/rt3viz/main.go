// Command rt3viz renders the pattern sets identified by the RT3 search
// (the paper's Fig. 4) as ASCII art or a PGM image per V/F level.
//
// Usage:
//
//	rt3viz                 # ASCII to stdout
//	rt3viz -pgm out        # writes out_<level>.pgm per deployed level
//
// The PGM filenames derive from the experiment's level names
// (res.Levels), one image per V/F level the search deployed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rt3/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rt3viz: ")
	pgm := flag.String("pgm", "", "write PGM images with this filename prefix instead of ASCII")
	scaleFlag := flag.String("scale", "tiny", "model scale: tiny or small")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiments.Figure4(scale)
	if err != nil {
		log.Fatal(err)
	}
	if *pgm == "" {
		fmt.Print(res)
		return
	}
	for i, art := range res.Rendered {
		name := fmt.Sprintf("%s_%s.pgm", *pgm, res.Levels[i])
		if err := writePGM(name, art); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (sparsity %.0f%%)\n", name, res.Sparsities[i]*100)
	}
}

// writePGM converts '#'/'.' ASCII art into a binary-valued PGM file.
func writePGM(name, art string) error {
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	h := len(lines)
	if h == 0 {
		return fmt.Errorf("empty pattern")
	}
	w := len(lines[0])
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", w, h)
	for _, line := range lines {
		for _, c := range line {
			if c == '#' {
				b.WriteString("0 ") // kept weight: dark pixel
			} else {
				b.WriteString("255 ")
			}
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(name, []byte(b.String()), 0o644)
}
