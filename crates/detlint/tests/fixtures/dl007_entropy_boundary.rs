//! DL007 fixture: a sequential RNG draw crossing a thread or process
//! boundary. The draw's value depends on the RNG cursor at call time, so
//! capturing it into a spawned closure or an IPC frame bakes scheduling
//! history into the computation. The sanctioned pattern re-derives
//! randomness from a replica index on the far side of the boundary.

pub fn captured_draw(rng: &mut StreamRng, scope: &Scope<'_>) {
    let jitter = rng.next_f64();
    scope.spawn(move || simulate(jitter)); // fires: cursor-dependent draw crosses the spawn
}

pub fn encoded_draw(rng: &mut StreamRng) -> Vec<u8> {
    let tag = rng.next_u32();
    encode_frame(Tag::Result, tag) // fires: draw baked into an IPC frame
}

pub fn drawn_into_spec(rng: &mut StreamRng, stdin: &mut ChildStdin) {
    let attempt = rng.next_u32();
    write_spec(stdin, &Spec { attempt }) // fires: draw shipped to a worker in its spec line
}

pub fn drawn_into_heartbeat(rng: &mut StreamRng, stdout: &mut Stdout) {
    let step = rng.next_u64();
    write_event(stdout, "hb", &step.to_string()) // fires: draw reported on a worker's stdout line
}

pub fn sampled_then_spawned(dist: &Normal, rng: &mut StreamRng, scope: &Scope<'_>) {
    let noise = dist.sample(rng);
    scope.spawn(move || perturb(noise)); // fires: sampled value crosses the spawn
}

// --- negative: index-derived entropy is position-independent ----------

pub fn derived_per_replica(settings: &Settings, scope: &Scope<'_>, idx: u64) {
    let entropy = settings.entropy_for(idx);
    scope.spawn(move || simulate(entropy));
}

// --- negative: pre-planned draws in reference order -------------------

pub fn planned_draws(red: &mut Reducer, scope: &Scope<'_>) {
    let plan = red.plan_dots(64, 8);
    scope.spawn(move || run_band(plan));
}

// --- negative: draw consumed locally, nothing crosses -----------------

pub fn local_draw(rng: &mut StreamRng) -> f64 {
    let x = rng.next_f64();
    x * 2.0
}

// --- negative: snapshot codecs encode cursors deliberately ------------

pub fn checkpointed(rng: &StreamRng, out: &mut Vec<u8>) {
    let snap = rng.snapshot();
    out.extend(encode_payload(&snap));
}
