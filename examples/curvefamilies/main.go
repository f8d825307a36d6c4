// Curvefamilies reproduces Figure 4 of the paper: families of PALU(d)
// degree distributions (Eq. (5)) for varying r, overlaid on their base
// modified Zipf–Mandelbrot distributions, rendered as ASCII log-log plots.
package main

import (
	"fmt"
	"log"

	"hybridplaw"
	"hybridplaw/internal/experiments"
	"hybridplaw/internal/plotio"
)

func main() {
	log.SetFlags(0)
	const dmax = 1 << 20 // the paper's 10^6 degrees, in binary-log bins

	for _, panel := range experiments.Figure4Spec() {
		zm := hybridplaw.ZipfMandelbrot{Alpha: panel.Alpha, Delta: panel.Delta}
		zmD, err := zm.PooledD(dmax)
		if err != nil {
			log.Fatal(err)
		}
		series := []plotio.Series{plotio.PooledSeries("ZM", zmD, 'z')}
		// Render the extreme family members; intermediate r interpolate.
		for _, r := range []float64{panel.Rs[0], panel.Rs[len(panel.Rs)-1]} {
			c := hybridplaw.PALUCurve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}
			pd, err := c.PooledD(dmax)
			if err != nil {
				log.Fatal(err)
			}
			marker := '.'
			if r == panel.Rs[len(panel.Rs)-1] {
				marker = '+'
			}
			series = append(series, plotio.PooledSeries(
				fmt.Sprintf("PALU r=%g", r), pd, marker))
		}
		chart, err := plotio.LogLogPlot(series, 72, 16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Example: alpha = %g; delta = %g; r = %v\n", panel.Alpha, panel.Delta, panel.Rs)
		fmt.Println(chart)
	}
}
