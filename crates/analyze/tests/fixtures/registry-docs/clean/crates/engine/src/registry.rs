struct BackendRow {
    name: &'static str,
    aliases: &'static [&'static str],
    description: &'static str,
}

static BACKENDS: [BackendRow; 1] = [BackendRow {
    name: "demo-backend",
    aliases: &["demo-alias"],
    description: "a backend for the registry-docs fixtures",
}];
