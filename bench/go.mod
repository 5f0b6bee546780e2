// The benchmark is a module of its own so that its directory can be laid
// over any commit of the repository and built there. Import paths under
// nvmalloc/bench may still import nvmalloc/internal/...: the go command
// checks the internal rule by import path, not by module.
module nvmalloc/bench

go 1.22

require nvmalloc v0.0.0

replace nvmalloc => ../
