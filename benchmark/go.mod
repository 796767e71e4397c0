// The pipeline benchmark is a module of its own so that the root module's
// build and tests do not depend on it. Its import path stays under ruru/,
// which is what lets it import ruru/internal/...; the replace points at the
// checkout it sits in.
module ruru/benchmark

go 1.24

require ruru v0.0.0

replace ruru => ../
