//! Reading the server's one-line JSON answers without a JSON crate.

/// What one response line says about its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A prediction.
    Class(u32),
    /// Admission control shed the request (`"busy":true`).
    Busy,
    /// Any other error line.
    Error,
}

/// Classifies one response line.
pub fn parse_answer(line: &str) -> Answer {
    if let Some(rest) = line.strip_prefix("{\"class\":") {
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        return digits.parse().map_or(Answer::Error, Answer::Class);
    }
    if line.contains("\"busy\":true") {
        Answer::Busy
    } else {
        Answer::Error
    }
}

/// The number after the first `"key":` in a JSON line.
pub fn json_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let text: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
        .collect();
    text.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_and_numbers() {
        assert_eq!(
            parse_answer("{\"class\":12,\"engine\":\"x\",\"batch\":3}"),
            Answer::Class(12)
        );
        assert_eq!(
            parse_answer("{\"error\":\"busy: max-inflight\",\"busy\":true}"),
            Answer::Busy
        );
        assert_eq!(parse_answer("{\"error\":\"nope\"}"), Answer::Error);
        let stats = "{\"requests\":10,\"mean_fill\":1.50,\"p50_us\":212}";
        assert_eq!(json_number(stats, "requests"), Some(10.0));
        assert_eq!(json_number(stats, "mean_fill"), Some(1.5));
        assert_eq!(json_number(stats, "p50_us"), Some(212.0));
        assert_eq!(json_number(stats, "missing"), None);
    }
}
