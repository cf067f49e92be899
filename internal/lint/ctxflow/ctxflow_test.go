package ctxflow_test

import (
	"testing"

	"prefetchlab/internal/lint/ctxflow"
	"prefetchlab/internal/lint/linttest"
)

func TestEnginePackage(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/src/sched")
}

func TestTenantPackage(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/src/tenant")
}

func TestResultCachePackage(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/src/resultcache")
}

func TestStaticProfPackage(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/src/staticprof")
}
