// Visionpipeline: stream synthetic video through two of the paper's
// applications — Haar feature extraction and the saliency map — and render
// their outputs as ASCII heat maps, with the energy model reporting what
// the same computation costs on TrueNorth silicon.
//
//	go run ./examples/visionpipeline
package main

import (
	"fmt"
	"log"

	"truenorth/internal/apps/haar"
	"truenorth/internal/apps/saliency"
	"truenorth/internal/chip"
	"truenorth/internal/corelet"
	"truenorth/internal/energy"
	"truenorth/internal/router"
	"truenorth/internal/vision"
)

const (
	imgW, imgH = 64, 32
	frames     = 5
)

func main() {
	scene := vision.NewScene(imgW, imgH, 4, 42)

	fmt.Println("=== Scene (frame 0) ===")
	printFrame(scene.Render())

	runSaliency(scene)
	runHaar()
}

func runSaliency(scene *vision.Scene) {
	app, err := saliency.Build(saliency.Params{ImgW: imgW, ImgH: imgH})
	if err != nil {
		log.Fatal(err)
	}
	eng, p := place(app.Net)
	tr := vision.DefaultTransducer()
	run, err := vision.RunVideo(eng, p, saliency.InputName, scene, tr, frames)
	if err != nil {
		log.Fatal(err)
	}
	counts := vision.CountByName(p, run.PerFrame[frames-1], saliency.OutputName, app.NumCells())

	fmt.Printf("\n=== Saliency map (frame %d), %d cores, %d neurons ===\n",
		frames-1, app.Net.NumCores(), app.Net.NumNeurons())
	printMap(counts, app.CellsX, app.CellsY)
	reportEnergy("saliency", eng, run.Ticks)
}

func runHaar() {
	app, err := haar.Build(haar.Params{ImgW: imgW, ImgH: imgH})
	if err != nil {
		log.Fatal(err)
	}
	eng, p := place(app.Net)
	scene := vision.NewScene(imgW, imgH, 4, 42)
	tr := vision.DefaultTransducer()
	run, err := vision.RunVideo(eng, p, haar.InputName, scene, tr, frames)
	if err != nil {
		log.Fatal(err)
	}
	counts := vision.CountByName(p, run.PerFrame[frames-1], haar.OutputName, app.NumOutputs())

	// Fig. 4(b) of the paper shows the horizontal-line response map;
	// feature 0 is our horizontal-edge filter.
	m := make([]int, app.PatchesX*app.PatchesY)
	for py := 0; py < app.PatchesY; py++ {
		for px := 0; px < app.PatchesX; px++ {
			m[py*app.PatchesX+px] = counts[app.Response(px, py, 0)]
		}
	}
	fmt.Printf("\n=== Haar horizontal-edge response map, %d cores, %d neurons ===\n",
		app.Net.NumCores(), app.Net.NumNeurons())
	printMap(m, app.PatchesX, app.PatchesY)
	reportEnergy("haar", eng, run.Ticks)
}

func place(net *corelet.Net) (*chip.Model, *corelet.Placement) {
	side := 1
	for side*side < net.NumCores() {
		side++
	}
	p, err := corelet.Place(net, router.Mesh{W: side, H: side})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := chip.New(p.Mesh, p.Configs)
	if err != nil {
		log.Fatal(err)
	}
	return eng, p
}

func reportEnergy(name string, eng *chip.Model, ticks int) {
	l := energy.LoadFrom(eng.Counters(), eng.NoC(), uint64(ticks))
	l.NeuronUpdates = float64(energy.LiveNeurons(eng)) // the silicon scans every live neuron
	model := energy.TrueNorth()
	fmt.Printf("%s on TrueNorth at real time: %.3f mW active+passive, %.1f MSOPS, %.1f pJ/synop\n",
		name, model.PowerW(l, 1000, 0.75)*1e3, l.SOPS(1000)/1e6, model.ActivePJPerSynEvent(l, 0.75))
}

func printFrame(f *vision.Frame) {
	const ramp = " .:-=+*#%@"
	for y := 0; y < f.H; y += 2 { // 2:1 aspect correction
		for x := 0; x < f.W; x++ {
			fmt.Print(string(ramp[int(f.At(x, y))*9/255]))
		}
		fmt.Println()
	}
}

func printMap(m []int, w, h int) {
	maxV := 1
	for _, v := range m {
		if v > maxV {
			maxV = v
		}
	}
	const ramp = " .:-=+*#%@"
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fmt.Print(string(ramp[m[y*w+x]*9/maxV]))
		}
		fmt.Println()
	}
}
