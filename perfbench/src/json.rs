//! A minimal JSON object writer for the benchmark's result lines.

/// An insertion-ordered JSON object under construction.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// A finite number, printed with every digit Rust's shortest
    /// round-trip formatting gives it.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "metric {key} is not finite: {value}");
        self.raw(key, format!("{value:?}"))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quote(value))
    }

    pub fn obj(&mut self, key: &str, value: &Obj) -> &mut Self {
        self.raw(key, value.render())
    }

    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_string(), json));
        self
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), v))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
