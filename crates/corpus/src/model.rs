//! The repository model: projects, commits, file changes.

use std::collections::BTreeMap;

/// The deterministic author identity stamped on every synthetic
/// commit, so generated corpora and real-git ingestion flow through
/// the same provenance plumbing.
pub(crate) const GENERATED_AUTHOR: &str = "diffcode-generator <generator@diffcode>";

/// Android-style project facts carried by the corpus (consumed by rule
/// R6 via the checker's project context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProjectFacts {
    /// `minSdkVersion` for Android projects.
    pub min_sdk_version: Option<i64>,
    /// Whether the project applies the Linux-PRNG fix.
    pub has_lprng_fix: bool,
}

/// One change to one file within a commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileChange {
    /// Repository-relative path.
    pub path: String,
    /// Content before the commit (`None` = file added).
    pub old: Option<String>,
    /// Content after the commit (`None` = file deleted).
    pub new: Option<String>,
}

/// A commit: metadata plus its file changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// Commit id (content-derived hex string).
    pub id: String,
    /// Commit author (`Name <email>`; empty when unknown). Real-git
    /// ingestion fills this from `%an <%ae>`; the synthetic generator
    /// stamps a deterministic bot identity.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// File changes.
    pub changes: Vec<FileChange>,
}

/// A project with a linear commit history on its master branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Project {
    /// Repository owner.
    pub user: String,
    /// Repository name.
    pub name: String,
    /// Project-level facts.
    pub facts: ProjectFacts,
    /// Commits in chronological order.
    pub commits: Vec<Commit>,
}

impl Project {
    /// The full name `user/name`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.user, self.name)
    }

    /// The file tree at HEAD (after applying all commits in order),
    /// borrowed from the commits that last wrote each file.
    pub fn head_files(&self) -> BTreeMap<&str, &str> {
        let mut files = BTreeMap::new();
        for commit in &self.commits {
            for change in &commit.changes {
                match &change.new {
                    Some(content) => {
                        files.insert(change.path.as_str(), content.as_str());
                    }
                    None => {
                        files.remove(change.path.as_str());
                    }
                }
            }
        }
        files
    }
}

/// A whole corpus of mined projects.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Corpus {
    /// All projects.
    pub projects: Vec<Project>,
}

impl Corpus {
    /// Total number of commits across all projects.
    pub fn total_commits(&self) -> usize {
        self.projects.iter().map(|p| p.commits.len()).sum()
    }

    /// All (project, commit, file-change) triples where both an old and
    /// a new version exist — the paper's "code changes".
    pub fn code_changes(&self) -> impl Iterator<Item = CodeChange<'_>> {
        self.projects.iter().flat_map(|project| {
            project.commits.iter().flat_map(move |commit| {
                commit
                    .changes
                    .iter()
                    .filter_map(move |change| match (&change.old, &change.new) {
                        (Some(old), Some(new)) => Some(CodeChange {
                            project,
                            commit,
                            path: &change.path,
                            old,
                            new,
                        }),
                        _ => None,
                    })
            })
        })
    }
}

/// One mined code change: a pair of program versions with provenance.
#[derive(Debug, Clone, Copy)]
pub struct CodeChange<'a> {
    /// The project the change belongs to.
    pub project: &'a Project,
    /// The commit that applied it.
    pub commit: &'a Commit,
    /// The changed file.
    pub path: &'a str,
    /// Content before.
    pub old: &'a str,
    /// Content after.
    pub new: &'a str,
}

impl Project {
    /// Writes the project's HEAD tree under `root` (creating
    /// directories as needed), returning the paths written. Used to
    /// hand generated projects to file-based tools such as the
    /// `diffcode` CLI.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn materialize(&self, root: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::new();
        for (rel, content) in self.head_files() {
            let path = root.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&path, content)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(id: &str, path: &str, old: Option<&str>, new: Option<&str>) -> Commit {
        Commit {
            id: id.to_owned(),
            author: String::new(),
            message: String::new(),
            changes: vec![FileChange {
                path: path.to_owned(),
                old: old.map(str::to_owned),
                new: new.map(str::to_owned),
            }],
        }
    }

    #[test]
    fn head_files_apply_in_order() {
        let project = Project {
            user: "u".into(),
            name: "p".into(),
            facts: ProjectFacts::default(),
            commits: vec![
                commit("1", "A.java", None, Some("v1")),
                commit("2", "A.java", Some("v1"), Some("v2")),
                commit("3", "B.java", None, Some("b1")),
                commit("4", "B.java", Some("b1"), None),
            ],
        };
        let head = project.head_files();
        assert_eq!(head.get("A.java"), Some(&"v2"));
        assert!(!head.contains_key("B.java"));
    }

    #[test]
    fn code_changes_require_both_sides() {
        let corpus = Corpus {
            projects: vec![Project {
                user: "u".into(),
                name: "p".into(),
                facts: ProjectFacts::default(),
                commits: vec![
                    commit("1", "A.java", None, Some("v1")),
                    commit("2", "A.java", Some("v1"), Some("v2")),
                ],
            }],
        };
        let changes: Vec<_> = corpus.code_changes().collect();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old, "v1");
        assert_eq!(changes[0].new, "v2");
    }
}
