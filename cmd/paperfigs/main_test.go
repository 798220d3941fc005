package main

import (
	"os"
	"testing"
)

// BenchmarkFigure renders each figure of the list as `paperfigs -fig
// <name> -quick -plots=false` does, one sub-benchmark per name, with its
// output sent to the null device.
func BenchmarkFigure(b *testing.B) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer null.Close()
	stdout, plotted := os.Stdout, *plots
	os.Stdout, *plots = null, false
	defer func() { os.Stdout, *plots = stdout, plotted }()
	for _, f := range figures {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := render(f, options{Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
